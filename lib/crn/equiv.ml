(* Individualization-refinement isomorphism for reaction networks. Colors
   are small ints; signature strings are interned through a shared table so
   colors are comparable across the two networks being matched. *)

type info = { n : int; reactions : Reaction.t array; init : float array }

let info_of net =
  {
    n = Network.n_species net;
    reactions = Network.reactions net;
    init = Network.initial_state net;
  }

let rate_key (r : Rates.t) =
  Printf.sprintf "%s*%.12g"
    (match r.Rates.category with Rates.Fast -> "f" | Rates.Slow -> "s")
    r.Rates.scale

let side_key colors side =
  List.map (fun (s, c) -> Printf.sprintf "%d^%d" colors.(s) c) side
  |> List.sort compare |> String.concat ","

let reaction_key colors (r : Reaction.t) =
  Printf.sprintf "%s|%s>%s" (rate_key r.Reaction.rate)
    (side_key colors r.Reaction.reactants)
    (side_key colors r.Reaction.products)

(* the multiset of colored contexts a species appears in *)
let species_key info colors s =
  let parts = ref [] in
  Array.iter
    (fun r ->
      let rk = reaction_key colors r in
      List.iter
        (fun (sp, c) ->
          if sp = s then parts := Printf.sprintf "R%d:%s" c rk :: !parts)
        r.Reaction.reactants;
      List.iter
        (fun (sp, c) ->
          if sp = s then parts := Printf.sprintf "P%d:%s" c rk :: !parts)
        r.Reaction.products)
    info.reactions;
  Printf.sprintf "%d|%s" colors.(s)
    (String.concat ";" (List.sort compare !parts))

(* Rank signature strings across all networks jointly: equal keys get
   equal colors (comparability between the networks being matched), and
   the numbers are the sorted ranks of the keys rather than first-come
   interning — so the coloring, and everything derived from it
   (fingerprints, cache keys), is independent of species index order. *)
let rank_colors keyss =
  let all =
    List.concat_map Array.to_list keyss |> List.sort_uniq compare
  in
  let rank = Hashtbl.create 64 in
  List.iteri (fun i k -> Hashtbl.add rank k i) all;
  List.map (Array.map (Hashtbl.find rank)) keyss

(* refinement rounds run in this process: the deterministic cost count *)
let rounds = Atomic.make 0
let refinement_rounds () = Atomic.get rounds

(* one joint refinement round; returns new colorings and whether anything
   split *)
let refine_round infos colorings =
  Atomic.incr rounds;
  let changed = ref false in
  let recolored =
    rank_colors
      (List.map2
         (fun info colors ->
           Array.init info.n (fun s -> species_key info colors s))
         infos colorings)
  in
  (* detect whether the partition got finer anywhere *)
  List.iter2
    (fun old fresh ->
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun s c ->
          match Hashtbl.find_opt seen old.(s) with
          | None -> Hashtbl.add seen old.(s) c
          | Some c' -> if c' <> c then changed := true)
        fresh)
    colorings recolored;
  (recolored, !changed)

let initial_colors infos =
  rank_colors
    (List.map
       (fun info ->
         Array.init info.n (fun s -> Printf.sprintf "%.12g" info.init.(s)))
       infos)

let rec refine infos colorings fuel =
  if fuel = 0 then colorings
  else
    let colorings', changed = refine_round infos colorings in
    if changed then refine infos colorings' (fuel - 1) else colorings'

(* class-size profiles must agree between the two networks *)
let classes_compatible c1 c2 =
  let count colors =
    let h = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        Hashtbl.replace h c (1 + Option.value ~default:0 (Hashtbl.find_opt h c)))
      colors;
    h
  in
  let h1 = count c1 and h2 = count c2 in
  Hashtbl.length h1 = Hashtbl.length h2
  && Hashtbl.fold
       (fun c n acc -> acc && Hashtbl.find_opt h2 c = Some n)
       h1 true

(* exact check of a complete candidate mapping (net1 species -> net2) *)
let mapping_valid i1 i2 mapping =
  let ok = ref true in
  Array.iteri
    (fun s1 s2 -> if i1.init.(s1) <> i2.init.(s2) then ok := false)
    mapping;
  !ok
  &&
  let key info rename r =
    let side s =
      List.map (fun (sp, c) -> (rename sp, c)) s
      |> List.sort compare
      |> List.map (fun (sp, c) -> Printf.sprintf "%d^%d" sp c)
      |> String.concat ","
    in
    ignore info;
    Printf.sprintf "%s|%s>%s" (rate_key r.Reaction.rate)
      (side r.Reaction.reactants)
      (side r.Reaction.products)
  in
  let multiset info rename =
    Array.to_list (Array.map (key info rename) info.reactions)
    |> List.sort compare
  in
  multiset i1 (fun s -> mapping.(s)) = multiset i2 (fun s -> s)

let isomorphic net1 net2 =
  let i1 = info_of net1 and i2 = info_of net2 in
  if i1.n <> i2.n || Array.length i1.reactions <> Array.length i2.reactions
  then false
  else begin
    let infos = [ i1; i2 ] in
    let rec search colorings =
      let colorings = refine infos colorings (i1.n + 2) in
      match colorings with
      | [ c1; c2 ] ->
          if not (classes_compatible c1 c2) then false
          else begin
            (* find the smallest color class with more than one member *)
            let by_color = Hashtbl.create 16 in
            Array.iteri
              (fun s c ->
                Hashtbl.replace by_color c
                  (s :: Option.value ~default:[] (Hashtbl.find_opt by_color c)))
              c1;
            let ambiguous =
              Hashtbl.fold
                (fun c members acc ->
                  match members with
                  | _ :: _ :: _ -> (
                      match acc with
                      | Some (_, best) when List.length best <= List.length members ->
                          acc
                      | _ -> Some (c, members))
                  | _ -> acc)
                by_color None
            in
            match ambiguous with
            | None ->
                (* all classes are singletons: read the mapping off colors *)
                let pos2 = Hashtbl.create 16 in
                Array.iteri (fun s c -> Hashtbl.replace pos2 c s) c2;
                let mapping =
                  Array.init i1.n (fun s -> Hashtbl.find pos2 c1.(s))
                in
                mapping_valid i1 i2 mapping
            | Some (color, members) ->
                (* individualize: pin one net1 member against each same-
                   colored net2 candidate in turn *)
                let s1 = List.hd (List.sort compare members) in
                let candidates =
                  List.filter (fun s -> c2.(s) = color)
                    (List.init i2.n (fun s -> s))
                in
                let fresh = 1 + Array.fold_left max 0 c1 + Array.fold_left max 0 c2 in
                List.exists
                  (fun s2 ->
                    let c1' = Array.copy c1 and c2' = Array.copy c2 in
                    c1'.(s1) <- fresh;
                    c2'.(s2) <- fresh;
                    search [ c1'; c2' ])
                  candidates
          end
      | _ -> assert false
    in
    search (initial_colors infos)
  end

let fingerprint net =
  let i = info_of net in
  let colors =
    match refine [ i ] (initial_colors [ i ]) (i.n + 2) with
    | [ c ] -> c
    | _ -> assert false
  in
  let reaction_keys =
    Array.to_list (Array.map (reaction_key colors) i.reactions)
    |> List.sort compare
  in
  let class_profile =
    let h = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        Hashtbl.replace h c (1 + Option.value ~default:0 (Hashtbl.find_opt h c)))
      colors;
    Hashtbl.fold (fun _ n acc -> n :: acc) h [] |> List.sort compare
    |> List.map string_of_int |> String.concat ","
  in
  Digest.to_hex
    (Digest.string (class_profile ^ "#" ^ String.concat "\n" reaction_keys))

(* The fingerprint quotients away names, species index order and
   reaction order — exactly the invariances a compiled-model cache must
   NOT have: simulation output carries the species-name array in index
   order, and the stochastic engine's trajectories are reproducible only
   for a fixed reaction ordering. So the cache key refines nothing: it
   digests the concrete binding in one pass, each length before what it
   counts and each float as its IEEE bits, so equal keys mean equal
   networks to the last bit of every amount and rate scale. *)
let cache_key net =
  let b = Buffer.create 4096 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let string s =
    int (String.length s);
    Buffer.add_string b s
  in
  let side s =
    int (List.length s);
    List.iter (fun (sp, c) -> int sp; int c) s
  in
  let names = Network.species_names net in
  let reactions = Network.reactions net in
  int (Array.length names);
  Array.iter string names;
  Array.iter float (Network.initial_state net);
  int (Array.length reactions);
  Array.iter
    (fun { Reaction.reactants; products; rate; label } ->
      side reactants;
      side products;
      int (match rate.Rates.category with Rates.Fast -> 0 | Rates.Slow -> 1);
      float rate.Rates.scale;
      match label with None -> int (-1) | Some l -> string l)
    reactions;
  Digest.to_hex (Digest.string (Buffer.contents b))
