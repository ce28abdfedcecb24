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
   duplicate-compile races. *)

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

(* Background snapshot persister: one domain draining a queue of
   (entry, source aliases) pairs, so serialization and disk writes never
   run on the request path. Entries are immutable once compiled, so
   sharing them with the persister domain is safe; the alias list is
   copied under the cache lock at enqueue time. *)
type persist_job = { pj_entry : entry; pj_sources : string list }

type persister = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  p_queue : persist_job Queue.t;
  p_dir : string;
  mutable p_stop : bool;
  mutable p_busy : bool;
  mutable p_domain : unit Domain.t option;
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
  mutable persister : persister option;
  mutable warm_loaded : int;
  mutable warm_skipped_corrupt : int;
  mutable warm_skipped_version : int;
  mutable snapshot_writes : int;
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
    persister = None;
    warm_loaded = 0;
    warm_skipped_corrupt = 0;
    warm_skipped_version = 0;
    snapshot_writes = 0;
  }

let env_key (env : Crn.Rates.env) =
  Printf.sprintf "%.17g/%.17g" env.Crn.Rates.k_fast env.Crn.Rates.k_slow

let touch cache entry =
  cache.tick <- cache.tick + 1;
  entry.last_used <- cache.tick

(* ---------- disk snapshots ---------- *)

let snapshot_path dir key =
  (* the key embeds '/' (the env part is "k_fast/k_slow"), so the file
     name is its digest, not the key itself *)
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".model")

let snapshot_of_entry entry ~sources =
  Snapshot.encode_model
    {
      Snapshot.ms_key = entry.key;
      ms_sources = Array.of_list sources;
      ms_compile_ms = entry.compile_ms;
      ms_net = entry.model.Engines.net;
      ms_env = entry.model.Engines.env;
      ms_sys = entry.model.Engines.sys;
      ms_ssa = entry.model.Engines.ssa;
    }

let write_snapshot cache dir job =
  match
    Binio.write_raw_atomic
      (snapshot_path dir job.pj_entry.key)
      (snapshot_of_entry job.pj_entry ~sources:job.pj_sources)
  with
  | () ->
      Mutex.lock cache.mutex;
      cache.snapshot_writes <- cache.snapshot_writes + 1;
      Mutex.unlock cache.mutex
  | exception Sys_error _ -> ()

let persister_loop cache p =
  let rec next () =
    Mutex.lock p.p_mutex;
    let job =
      let rec wait () =
        if not (Queue.is_empty p.p_queue) then begin
          p.p_busy <- true;
          Some (Queue.pop p.p_queue)
        end
        else if p.p_stop then None
        else begin
          Condition.wait p.p_cond p.p_mutex;
          wait ()
        end
      in
      wait ()
    in
    Mutex.unlock p.p_mutex;
    match job with
    | None -> ()
    | Some job ->
        write_snapshot cache p.p_dir job;
        Mutex.lock p.p_mutex;
        p.p_busy <- false;
        Mutex.unlock p.p_mutex;
        next ()
  in
  next ()

(* Called with the cache mutex held: snapshot the alias list and hand
   the immutable entry to the persister domain. Without a configured
   state dir this is a no-op. *)
let schedule_persist cache entry =
  match cache.persister with
  | None -> ()
  | Some p ->
      let sources =
        Hashtbl.fold
          (fun src key acc -> if key = entry.key then src :: acc else acc)
          cache.sources []
        |> List.sort compare
      in
      Mutex.lock p.p_mutex;
      Queue.push { pj_entry = entry; pj_sources = sources } p.p_queue;
      Condition.signal p.p_cond;
      Mutex.unlock p.p_mutex

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let set_state_dir cache dir =
  mkdir_p dir;
  Mutex.lock cache.mutex;
  (match cache.persister with
  | Some _ -> ()
  | None ->
      let p =
        {
          p_mutex = Mutex.create ();
          p_cond = Condition.create ();
          p_queue = Queue.create ();
          p_dir = dir;
          p_stop = false;
          p_busy = false;
          p_domain = None;
        }
      in
      p.p_domain <- Some (Domain.spawn (fun () -> persister_loop cache p));
      cache.persister <- Some p);
  Mutex.unlock cache.mutex

let flush cache =
  match cache.persister with
  | None -> ()
  | Some p ->
      let rec wait_idle () =
        Mutex.lock p.p_mutex;
        let idle = Queue.is_empty p.p_queue && not p.p_busy in
        Mutex.unlock p.p_mutex;
        if not idle then begin
          Unix.sleepf 0.002;
          wait_idle ()
        end
      in
      wait_idle ()

let shutdown cache =
  Mutex.lock cache.mutex;
  let p = cache.persister in
  cache.persister <- None;
  Mutex.unlock cache.mutex;
  match p with
  | None -> ()
  | Some p ->
      Mutex.lock p.p_mutex;
      p.p_stop <- true;
      Condition.signal p.p_cond;
      Mutex.unlock p.p_mutex;
      (match p.p_domain with Some d -> Domain.join d | None -> ())

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
      (* persist before dropping: an evicted entry remains loadable from
         disk, so capacity pressure never destroys compilation work *)
      schedule_persist cache e;
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
          (* off the request path: the persister domain serializes and
             writes; the request only enqueues (alias list included, so
             the snapshot memoizes synthesis too) *)
          schedule_persist cache entry;
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

(* ---------- warm load / save ---------- *)

type warm_report = { loaded : int; skipped_corrupt : int; skipped_version : int }

(* Admit one decoded snapshot under the lock. The stored key is
   untrusted: the digest is recomputed from the decoded network and
   environment and must match, so a stale or tampered file (another
   key revision, edited bytes that still pass the CRC by construction)
   is skipped rather than poisoning the cache. *)
let admit cache (ms : Snapshot.model_snapshot) =
  let expect = key ms.Snapshot.ms_env ms.Snapshot.ms_net in
  if expect <> ms.Snapshot.ms_key then `Stale
  else if Hashtbl.mem cache.models expect then `Duplicate
  else if Hashtbl.length cache.models >= cache.capacity then `Full
  else begin
    let entry =
      {
        key = expect;
        model =
          {
            Engines.net = ms.Snapshot.ms_net;
            env = ms.Snapshot.ms_env;
            sys = ms.Snapshot.ms_sys;
            ssa = ms.Snapshot.ms_ssa;
          };
        compile_ms = ms.Snapshot.ms_compile_ms;
        last_used = 0;
        hits = 0;
      }
    in
    (* LRU accounting restarts at load time: a warm entry gets a fresh
       tick (not the zero it was created with), otherwise every
       warm-loaded entry would be the immediate eviction victim and one
       cold insert could wipe the whole warm set *)
    touch cache entry;
    Hashtbl.replace cache.models expect entry;
    Array.iter
      (fun src -> Hashtbl.replace cache.sources src expect)
      ms.Snapshot.ms_sources;
    `Loaded
  end

let load_from cache dir =
  let files =
    match Sys.readdir dir with
    | exception Sys_error _ -> [||]
    | names ->
        let models =
          Array.to_list names
          |> List.filter (fun f -> Filename.check_suffix f ".model")
          |> List.sort compare
        in
        Array.of_list models
  in
  let report = ref { loaded = 0; skipped_corrupt = 0; skipped_version = 0 } in
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      match Snapshot.decode_model (Binio.read_raw path) with
      | exception (Binio.Corrupt _ | Sys_error _) ->
          report := { !report with skipped_corrupt = !report.skipped_corrupt + 1 }
      | exception Snapshot.Version_mismatch _ ->
          report := { !report with skipped_version = !report.skipped_version + 1 }
      | ms -> (
          Mutex.lock cache.mutex;
          let verdict = admit cache ms in
          Mutex.unlock cache.mutex;
          match verdict with
          | `Loaded -> report := { !report with loaded = !report.loaded + 1 }
          | `Stale ->
              report :=
                { !report with skipped_corrupt = !report.skipped_corrupt + 1 }
          | `Duplicate | `Full -> ()))
    files;
  Mutex.lock cache.mutex;
  cache.warm_loaded <- cache.warm_loaded + !report.loaded;
  cache.warm_skipped_corrupt <-
    cache.warm_skipped_corrupt + !report.skipped_corrupt;
  cache.warm_skipped_version <-
    cache.warm_skipped_version + !report.skipped_version;
  Mutex.unlock cache.mutex;
  !report

let save_to cache dir =
  mkdir_p dir;
  Mutex.lock cache.mutex;
  let jobs =
    Hashtbl.fold
      (fun _ e acc ->
        let sources =
          Hashtbl.fold
            (fun src key acc -> if key = e.key then src :: acc else acc)
            cache.sources []
          |> List.sort compare
        in
        { pj_entry = e; pj_sources = sources } :: acc)
      cache.models []
  in
  Mutex.unlock cache.mutex;
  List.iter (write_snapshot cache dir) jobs;
  List.length jobs

let warm_counters cache =
  Mutex.lock cache.mutex;
  let c =
    ( cache.warm_loaded,
      cache.warm_skipped_corrupt,
      cache.warm_skipped_version,
      cache.snapshot_writes )
  in
  Mutex.unlock cache.mutex;
  c
