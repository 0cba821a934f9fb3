(* Differential harness for the static leak analysis: on seeded
   generated worlds with injected Gao-Rexford-violating edges, the
   abstract verdict of [Leak_analysis.analyze] must over-approximate
   the concrete oracle ([Propagation.propagate_general] driven by the
   same world's dynamic hooks) — dynamically reachable ASes must be
   inside the static [reachable] set and dynamically polluted ASes
   inside the static [tainted] set, on every seed, every scenario:
   ZERO false negatives. False positives are allowed (the abstraction
   ignores loop suppression and best-path selection); the harness
   measures and reports that rate rather than bounding it.

   Run alone with `dune build @check-diff`; widen the sweep with
   CHECK_DIFF_SEEDS=<n> (default 10). *)

open Peering_net
open Peering_topo
open Peering_check

let n_seeds =
  match Sys.getenv_opt "CHECK_DIFF_SEEDS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 10)
  | None -> 10

let sizes =
  [ ( "~100as",
      { Gen.default_params with
        Gen.n_tier1 = 3;
        n_large_transit = 5;
        n_small_transit = 12;
        n_stub = 75;
        n_content = 5;
        target_prefixes = 150
      } );
    ( "~300as",
      { Gen.default_params with
        Gen.n_tier1 = 4;
        n_large_transit = 10;
        n_small_transit = 36;
        n_stub = 230;
        n_content = 10;
        target_prefixes = 300
      } )
  ]

(* Mutable tallies for the false-positive report. *)
let fp_taint = ref 0
let total_taint = ref 0
let fp_reach = ref 0
let total_reach = ref 0
let runs = ref 0

let set_of_list l = List.fold_left (fun s a -> Asn.Set.add a s) Asn.Set.empty l

(* One differential run: dynamic oracle vs static fixpoint for one
   announcement on one prepared world. Fails the test on any false
   negative; accumulates false-positive tallies. *)
let differential name w ann =
  incr runs;
  let g = World.graph w in
  let dyn =
    Propagation.propagate_general ~leak:(World.dynamic_leak w)
      ~export_filter:(World.dynamic_export w)
      ~import_filter:(World.dynamic_import w) g [ ann ]
  in
  let dyn_reach = set_of_list (Propagation.reachable dyn) in
  let dyn_poll = set_of_list (Propagation.polluted g dyn) in
  let static = Leak_analysis.analyze w ann in
  let missing_reach = Asn.Set.diff dyn_reach static.Leak_analysis.reachable in
  let missing_poll = Asn.Set.diff dyn_poll static.Leak_analysis.tainted in
  if not (Asn.Set.is_empty missing_reach) then
    Alcotest.failf "%s: FALSE NEGATIVE (reach): dynamic-only ASes %s" name
      (String.concat ", "
         (List.map Asn.to_string (Asn.Set.elements missing_reach)));
  if not (Asn.Set.is_empty missing_poll) then
    Alcotest.failf "%s: FALSE NEGATIVE (taint): dynamic-only ASes %s" name
      (String.concat ", "
         (List.map Asn.to_string (Asn.Set.elements missing_poll)));
  total_taint := !total_taint + Asn.Set.cardinal static.Leak_analysis.tainted;
  fp_taint :=
    !fp_taint
    + Asn.Set.cardinal (Asn.Set.diff static.Leak_analysis.tainted dyn_poll);
  total_reach :=
    !total_reach + Asn.Set.cardinal static.Leak_analysis.reachable;
  fp_reach :=
    !fp_reach
    + Asn.Set.cardinal (Asn.Set.diff static.Leak_analysis.reachable dyn_reach)

(* A stub (with a prefix) that is NOT the leaker and NOT inside the
   leaker's customer cone, so the leaked route genuinely crosses the
   violating edge. *)
let pick_origin world leaker =
  let g = world.Gen.graph in
  let cone = Customer_cone.cone g leaker in
  List.find_opt
    (fun a ->
      (not (Asn.equal a leaker))
      && (not (Asn.Set.mem a cone))
      && As_graph.prefixes_of g a <> [])
    world.Gen.stubs

(* A stub with at least two providers makes the most interesting
   leaker: it learns provider/peer routes and re-exports them up. *)
let pick_leaker world =
  let g = world.Gen.graph in
  List.find_opt
    (fun a -> List.length (As_graph.providers g a) >= 2)
    world.Gen.stubs

let leak_everything w leaker =
  let g = World.graph w in
  List.iter
    (fun (v, rel) ->
      match rel with
      | Relationship.Provider | Relationship.Peer ->
        World.inject_leak w ~from:leaker ~to_:v
      | Relationship.Customer -> ())
    (As_graph.neighbors g leaker)

let announcement_for g origin =
  match As_graph.prefixes_of g origin with
  | p :: _ -> Propagation.announce origin p
  | [] -> Alcotest.fail "origin without prefixes"

let scenario_single seed world =
  match pick_leaker world with
  | None -> ()
  | Some leaker -> (
    match pick_origin world leaker with
    | None -> ()
    | Some origin ->
      let w = World.of_graph world.Gen.graph in
      leak_everything w leaker;
      differential
        (Printf.sprintf "single-leak seed=%d" seed)
        w
        (announcement_for world.Gen.graph origin))

let scenario_multi seed world =
  let g = world.Gen.graph in
  let leakers =
    List.filteri
      (fun i _ -> i < 3)
      (List.filter
         (fun a -> List.length (As_graph.providers g a) >= 2)
         world.Gen.stubs)
  in
  match leakers with
  | [] -> ()
  | first :: _ -> (
    match pick_origin world first with
    | None -> ()
    | Some origin ->
      let w = World.of_graph g in
      List.iter (leak_everything w) leakers;
      differential
        (Printf.sprintf "multi-leak seed=%d" seed)
        w (announcement_for g origin))

(* Tier-1s protect each other with Peerlock: static blocking may only
   use must-information, which is exactly what this scenario probes —
   a sound analysis still must not report fewer ASes than the dynamic
   run reaches with the same Peerlock filters active. *)
let scenario_peerlock seed world =
  match pick_leaker world with
  | None -> ()
  | Some leaker -> (
    match pick_origin world leaker with
    | None -> ()
    | Some origin ->
      let w = World.of_graph world.Gen.graph in
      leak_everything w leaker;
      List.iter
        (fun t1 ->
          List.iter
            (fun other ->
              if not (Asn.equal t1 other) then
                World.add_peerlock w ~at:t1 ~protect:other)
            world.Gen.tier1)
        world.Gen.tier1;
      differential
        (Printf.sprintf "peerlock seed=%d" seed)
        w
        (announcement_for world.Gen.graph origin))

let scenario_peerlock_lite seed world =
  match pick_leaker world with
  | None -> ()
  | Some leaker -> (
    match pick_origin world leaker with
    | None -> ()
    | Some origin ->
      let w = World.of_graph world.Gen.graph in
      leak_everything w leaker;
      List.iter (World.add_peerlock_lite w) world.Gen.large_transit;
      differential
        (Printf.sprintf "peerlock-lite seed=%d" seed)
        w
        (announcement_for world.Gen.graph origin))

(* Windowed leaks: the same injected edges, but half the leaker's
   violating edges only admit the origin's exact prefix and the other
   half a window that does NOT cover it — the dynamic export filter
   and the static [admits] must agree on both. *)
let scenario_windowed seed world =
  match pick_leaker world with
  | None -> ()
  | Some leaker -> (
    match pick_origin world leaker with
    | None -> ()
    | Some origin ->
      let g = world.Gen.graph in
      let p =
        match As_graph.prefixes_of g origin with
        | p :: _ -> p
        | [] -> Alcotest.fail "origin without prefixes"
      in
      let w = World.of_graph g in
      leak_everything w leaker;
      let flip = ref false in
      List.iter
        (fun (v, rel) ->
          match rel with
          | Relationship.Provider | Relationship.Peer ->
            flip := not !flip;
            let window =
              if !flip then (p, Prefix.len p, Prefix.len p)
              else (Prefix.of_string_exn "203.0.113.0/24", 24, 32)
            in
            World.add_export_window w ~from:leaker ~to_:v window
          | Relationship.Customer -> ())
        (As_graph.neighbors g leaker);
      differential
        (Printf.sprintf "windowed seed=%d" seed)
        w (Propagation.announce origin p))

(* With no overrides at all, the general engine must agree exactly
   with the three-phase valley-free engine, and the static analysis
   must report nothing tainted. *)
let scenario_no_leak seed world =
  let g = world.Gen.graph in
  match
    List.find_opt (fun a -> As_graph.prefixes_of g a <> []) world.Gen.stubs
  with
  | None -> ()
  | Some origin ->
    let ann = announcement_for g origin in
    let general = Propagation.propagate_general g [ ann ] in
    let valley_free = Propagation.propagate g [ ann ] in
    Alcotest.(check bool)
      (Printf.sprintf "general = propagate on leak-free world (seed %d)" seed)
      true
      (Propagation.table general = Propagation.table valley_free);
    Alcotest.(check (list int))
      (Printf.sprintf "nothing polluted without leaks (seed %d)" seed)
      []
      (List.map Asn.to_int (Propagation.polluted g general));
    let w = World.of_graph g in
    let static = Leak_analysis.analyze w ann in
    Alcotest.(check int)
      (Printf.sprintf "nothing tainted without leaks (seed %d)" seed)
      0
      (Asn.Set.cardinal static.Leak_analysis.tainted)

let scenarios =
  [ ("no-leak", scenario_no_leak);
    ("single-leak", scenario_single);
    ("multi-leak", scenario_multi);
    ("peerlock", scenario_peerlock);
    ("peerlock-lite", scenario_peerlock_lite);
    ("windowed", scenario_windowed)
  ]

let sweep size_name params (scenario_name, scenario) () =
  for seed = 1 to n_seeds do
    let world = Gen.generate { params with Gen.seed } in
    scenario seed world
  done;
  ignore size_name;
  ignore scenario_name

let () =
  Printf.printf
    "check-diff: %d seeds per scenario per size (CHECK_DIFF_SEEDS to widen)\n"
    n_seeds;
  let result =
    try
      Alcotest.run ~and_exit:false "check_diff"
        (List.map
           (fun (size_name, params) ->
             ( size_name,
               List.map
                 (fun ((scenario_name, _) as sc) ->
                   Alcotest.test_case scenario_name `Quick
                     (sweep size_name params sc))
                 scenarios ))
           sizes);
      true
    with _ -> false
  in
  if !total_taint > 0 then
    Printf.printf
      "check-diff: %d differential runs; taint false-positive rate %d/%d \
       (%.1f%%), reach false-positive rate %d/%d (%.1f%%), zero false \
       negatives\n"
      !runs !fp_taint !total_taint
      (100.0 *. float_of_int !fp_taint /. float_of_int !total_taint)
      !fp_reach !total_reach
      (100.0 *. float_of_int !fp_reach /. float_of_int !total_reach);
  exit (if result then 0 else 1)
