(* LRU cache of compiled simulation models.

   Two maps under one mutex:

   - [models]: network binding digest ({!Crn.Equiv.cache_key} extended
     with the rate environment) -> compiled entry (the network, its
     compiled ODE system, and the compiled SSA model). Distinct request
     sources that synthesize the same network under the same environment
     share one compiled entry through this digest.
   - [sources]: request-source digest -> model key. A repeat of an
     identical request skips synthesis, the digest and compilation.

   Both compiled artifacts are immutable once built (runs keep all
   mutable state per-run), so entries are safely shared by concurrent
   worker domains. Compilation happens under the lock: a miss (build,
   digest, both compilers) costs well under a millisecond on the catalog
   designs, and serializing misses keeps the code free of
   duplicate-compile races. Nothing is persisted: a restarted daemon
   recompiles each model on its first touch, which costs less than
   decoding a stored copy would. *)

type entry = {
  key : string;
  model : Engines.model;
  compile_ms : float;
      (* what the cold path paid: synthesis + binding digest + both
         compilers; reported in response metrics so clients see what the
         cache saves them *)
  mutable last_used : int;
  mutable hits : int;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  models : (string, entry) Hashtbl.t;
  sources : (string, string) Hashtbl.t;
  mutable tick : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable evictions : int;
}

let create ?(capacity = 32) () =
  if capacity < 1 then invalid_arg "Model_cache.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    capacity;
    models = Hashtbl.create 64;
    sources = Hashtbl.create 64;
    tick = 0;
    hit_count = 0;
    miss_count = 0;
    evictions = 0;
  }

let env_key (env : Crn.Rates.env) =
  Printf.sprintf "%.17g/%.17g" env.Crn.Rates.k_fast env.Crn.Rates.k_slow

let touch cache entry =
  cache.tick <- cache.tick + 1;
  entry.last_used <- cache.tick

let evict_lru cache =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some best when best.last_used <= e.last_used -> acc
        | _ -> Some e)
      cache.models None
  in
  match victim with
  | None -> ()
  | Some e ->
      Hashtbl.remove cache.models e.key;
      (* drop the source aliases that pointed at it *)
      let stale =
        Hashtbl.fold
          (fun src key acc -> if key = e.key then src :: acc else acc)
          cache.sources []
      in
      List.iter (Hashtbl.remove cache.sources) stale;
      cache.evictions <- cache.evictions + 1

let key env net = Crn.Equiv.cache_key net ^ "@" ^ env_key env

(* the resident entry, and the one to answer with *)
let compile_entry cache ~env ~build =
  let t0 = Unix.gettimeofday () in
  let net = build () in
  let key = key env net in
  let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
  match Hashtbl.find_opt cache.models key with
  | Some entry ->
      (* different source text, same network: the digest dedupes it
         onto the existing compiled entry; the request still counts as
         a miss and reports what it paid (synthesis + digest), not the
         compile that made the entry *)
      (entry, { entry with compile_ms = elapsed_ms () })
  | None ->
      let model = Engines.compile env net in
      let entry =
        { key; model; compile_ms = elapsed_ms (); last_used = 0; hits = 0 }
      in
      if Hashtbl.length cache.models >= cache.capacity then evict_lru cache;
      Hashtbl.replace cache.models key entry;
      (entry, entry)

let find_or_compile cache ~source_key ~env ~build =
  Mutex.lock cache.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache.mutex)
    (fun () ->
      let hit =
        match Hashtbl.find_opt cache.sources source_key with
        | Some key -> Hashtbl.find_opt cache.models key
        | None -> None
      in
      match hit with
      | Some entry ->
          touch cache entry;
          entry.hits <- entry.hits + 1;
          cache.hit_count <- cache.hit_count + 1;
          (entry, `Hit)
      | None ->
          let entry, answer = compile_entry cache ~env ~build in
          touch cache entry;
          Hashtbl.replace cache.sources source_key entry.key;
          cache.miss_count <- cache.miss_count + 1;
          (answer, `Miss))

let stats cache =
  Mutex.lock cache.mutex;
  let s =
    ( Hashtbl.length cache.models,
      cache.hit_count,
      cache.miss_count,
      cache.evictions )
  in
  Mutex.unlock cache.mutex;
  s

let source_key ~spec ~env = Digest.to_hex (Digest.string (spec ^ "@" ^ env_key env))
