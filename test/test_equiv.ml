(* Tests for structural network equivalence (isomorphism up to species
   renaming). *)

open Crn

let simple ?(init = 5.) names arrows =
  let net = Network.create () in
  List.iter (fun n -> ignore (Network.species net n)) names;
  (match names with
  | first :: _ -> Network.set_init net (Network.species net first) init
  | [] -> ());
  List.iter
    (fun (a, b) ->
      Network.add_reaction net
        (Reaction.make
           ~reactants:[ (Network.species net a, 1) ]
           ~products:[ (Network.species net b, 1) ]
           Rates.slow))
    arrows;
  net

let test_identical_networks () =
  let n1 = simple [ "A"; "B"; "C" ] [ ("A", "B"); ("B", "C") ] in
  let n2 = simple [ "A"; "B"; "C" ] [ ("A", "B"); ("B", "C") ] in
  Alcotest.(check bool) "isomorphic" true (Equiv.isomorphic n1 n2);
  Alcotest.(check string) "same fingerprint" (Equiv.fingerprint n1)
    (Equiv.fingerprint n2)

let test_renamed_network () =
  let n1 = simple [ "A"; "B"; "C" ] [ ("A", "B"); ("B", "C") ] in
  let n2 = simple [ "x"; "y"; "z" ] [ ("x", "y"); ("y", "z") ] in
  Alcotest.(check bool) "renaming is invisible" true (Equiv.isomorphic n1 n2);
  Alcotest.(check string) "fingerprint invariant" (Equiv.fingerprint n1)
    (Equiv.fingerprint n2)

let test_different_topology () =
  (* chain A->B->C vs fork A->B, A->C *)
  let n1 = simple [ "A"; "B"; "C" ] [ ("A", "B"); ("B", "C") ] in
  let n2 = simple [ "A"; "B"; "C" ] [ ("A", "B"); ("A", "C") ] in
  Alcotest.(check bool) "chain != fork" false (Equiv.isomorphic n1 n2);
  Alcotest.(check bool) "fingerprints differ" true
    (Equiv.fingerprint n1 <> Equiv.fingerprint n2)

let test_different_rates () =
  let mk rate =
    let net = Network.create () in
    let a = Network.species net "A" and b = Network.species net "B" in
    Network.set_init net a 3.;
    Network.add_reaction net
      (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] rate);
    net
  in
  Alcotest.(check bool) "category matters" false
    (Equiv.isomorphic (mk Rates.slow) (mk Rates.fast));
  Alcotest.(check bool) "scale matters" false
    (Equiv.isomorphic (mk Rates.slow) (mk (Rates.slow_scaled 2.)))

let test_different_inits () =
  let n1 = simple ~init:5. [ "A"; "B" ] [ ("A", "B") ] in
  let n2 = simple ~init:6. [ "A"; "B" ] [ ("A", "B") ] in
  Alcotest.(check bool) "initial conditions matter" false
    (Equiv.isomorphic n1 n2)

let test_symmetric_network () =
  (* two independent identical blocks force the individualization search *)
  let mk order =
    let net = Network.create () in
    let add (a, b) =
      let sa = Network.species net a and sb = Network.species net b in
      Network.set_init net sa 2.;
      Network.add_reaction net
        (Reaction.make ~reactants:[ (sa, 1) ] ~products:[ (sb, 1) ] Rates.slow)
    in
    List.iter add order;
    net
  in
  let n1 = mk [ ("A1", "B1"); ("A2", "B2") ] in
  let n2 = mk [ ("P", "Q"); ("R", "S") ] in
  Alcotest.(check bool) "symmetric blocks match" true (Equiv.isomorphic n1 n2)

let test_symmetric_vs_crossed () =
  (* two parallel arrows vs a shared-target fork: same counts, different
     structure; both have total symmetry in the sources *)
  let net1 = Network.create () in
  let a1 = Network.species net1 "A1" and a2 = Network.species net1 "A2" in
  let b1 = Network.species net1 "B1" and b2 = Network.species net1 "B2" in
  Network.set_init net1 a1 2.;
  Network.set_init net1 a2 2.;
  List.iter
    (fun (x, y) ->
      Network.add_reaction net1
        (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.slow))
    [ (a1, b1); (a2, b2) ];
  let net2 = Network.create () in
  let c1 = Network.species net2 "C1" and c2 = Network.species net2 "C2" in
  let d = Network.species net2 "D" in
  let _e = Network.species net2 "E" in
  Network.set_init net2 c1 2.;
  Network.set_init net2 c2 2.;
  List.iter
    (fun (x, y) ->
      Network.add_reaction net2
        (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.slow))
    [ (c1, d); (c2, d) ];
  Alcotest.(check bool) "parallel != shared target" false
    (Equiv.isomorphic net1 net2)

let test_synthesis_deterministic () =
  (* two independent synthesis runs of the same design are isomorphic (in
     fact identical up to generated names) *)
  let build () = Designs.Catalog.build "counter2" in
  let n1 = build () and n2 = build () in
  Alcotest.(check string) "fingerprints equal" (Equiv.fingerprint n1)
    (Equiv.fingerprint n2);
  Alcotest.(check bool) "isomorphic" true (Equiv.isomorphic n1 n2)

let test_different_designs_not_isomorphic () =
  let c2 = Designs.Catalog.build "counter2" in
  let l3 = Designs.Catalog.build "lfsr3" in
  Alcotest.(check bool) "counter != lfsr" false (Equiv.isomorphic c2 l3)

let test_size_mismatch_fast_path () =
  let n1 = simple [ "A"; "B" ] [ ("A", "B") ] in
  let n2 = simple [ "A"; "B"; "C" ] [ ("A", "B") ] in
  Alcotest.(check bool) "species count differs" false (Equiv.isomorphic n1 n2)

(* The cache key is the exact binding: it moves with a name, the last
   bit of an initial amount or rate scale, or a label (the parse op
   echoes labels), and it runs no colour refinement. *)
let test_cache_key_binding () =
  let mk ?(b = "B") ?(init = 3.) ?(scale = 1.) ?label () =
    let net = Network.create () in
    let sa = Network.species net "A" and sb = Network.species net b in
    Network.set_init net sa init;
    Network.add_reaction net
      (Reaction.make ?label ~reactants:[ (sa, 1) ] ~products:[ (sb, 1) ]
         (Rates.slow_scaled scale));
    Network.add_reaction net
      (Reaction.make ~reactants:[ (sb, 1) ] ~products:[] Rates.fast);
    net
  in
  let rounds = Equiv.refinement_rounds () in
  let base = Equiv.cache_key (mk ()) in
  Alcotest.(check string) "same binding, same key" base
    (Equiv.cache_key (mk ()));
  List.iter
    (fun (what, net) ->
      Alcotest.(check bool) (what ^ " moves the key") true
        (Equiv.cache_key net <> base))
    [
      ("a species name", mk ~b:"C" ());
      ("an initial amount's last bit", mk ~init:(Float.succ 3.) ());
      ("a rate scale's last bit", mk ~scale:(Float.succ 1.) ());
      ("a label", mk ~label:"note" ());
    ];
  Alcotest.(check int) "no refinement rounds" rounds
    (Equiv.refinement_rounds ())

let qcheck_tests =
  let open QCheck in
  (* a random network, then a random species permutation of it: always
     isomorphic *)
  let gen =
    Gen.(
      let* n = int_range 2 6 in
      let* arrows =
        list_size (int_range 1 8) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let* inits = list_size (return n) (int_range 0 3) in
      let* seed = int_range 0 1000000 in
      return (n, arrows, inits, seed))
  in
  [
    Test.make ~name:"any species permutation is isomorphic" ~count:40
      (make gen)
      (fun (n, arrows, inits, seed) ->
        let build names =
          let net = Network.create () in
          List.iter (fun nm -> ignore (Network.species net nm)) names;
          List.iteri
            (fun i v ->
              Network.set_init net
                (Network.species net (List.nth names i))
                (float_of_int v))
            inits;
          List.iter
            (fun (a, b) ->
              Network.add_reaction net
                (Reaction.make
                   ~reactants:[ (Network.species net (List.nth names a), 1) ]
                   ~products:[ (Network.species net (List.nth names b), 1) ]
                   Rates.slow))
            arrows;
          net
        in
        let base = List.init n (fun i -> Printf.sprintf "s%d" i) in
        (* deterministic pseudo-random permutation from the seed *)
        let rng = Numeric.Rng.create (Int64.of_int seed) in
        let arr = Array.of_list base in
        for i = Array.length arr - 1 downto 1 do
          let j = Numeric.Rng.int rng (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        let renamed = List.init n (fun i -> "p." ^ arr.(i)) in
        Equiv.isomorphic (build base) (build renamed));
  ]

let suite =
  [
    ("identical networks", `Quick, test_identical_networks);
    ("renamed network", `Quick, test_renamed_network);
    ("different topology", `Quick, test_different_topology);
    ("different rates", `Quick, test_different_rates);
    ("different inits", `Quick, test_different_inits);
    ("symmetric network", `Quick, test_symmetric_network);
    ("symmetric vs crossed", `Quick, test_symmetric_vs_crossed);
    ("synthesis deterministic", `Quick, test_synthesis_deterministic);
    ("different designs", `Quick, test_different_designs_not_isomorphic);
    ("size mismatch", `Quick, test_size_mismatch_fast_path);
    ("cache key is the exact binding", `Quick, test_cache_key_binding);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
