(* Differential harness for the valley-free propagation engine.

   [Propagation.propagate] (three-phase work queue) must produce a
   route table byte-identical to the hook engine
   [Propagation.propagate_general] run without hooks — route by route:
   path, learned_over, ann_index — for every seed and world size,
   including runs exercising [?deny], [?export_to], [~down],
   multi-origin anycast and path poisoning; every table must also be a
   stable state, checked from first principles. A second family drives
   a small [Testbed] with a seeded stream of batched ops and checks
   every prefix's coalesced result against a fresh propagation of the
   same inputs. The seed sweep widens without code changes via
   PROPAGATION_DIFF_SEEDS=<n> (default 10 seeds). *)

open Peering_net
open Peering_topo

let check = Alcotest.check
let tc = Alcotest.test_case

let n_seeds =
  match Sys.getenv_opt "PROPAGATION_DIFF_SEEDS" with
  | None -> 10
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None ->
      invalid_arg "PROPAGATION_DIFF_SEEDS must be a positive integer")

let seeds = List.init n_seeds (fun i -> i + 1)

(* Three world sizes: ~100, ~900 and ~3000 ASes. *)
let sizes =
  [ ( "~100as",
      { Gen.seed = 0;
        n_tier1 = 3;
        n_large_transit = 5;
        n_small_transit = 12;
        n_stub = 75;
        n_content = 5;
        target_prefixes = 150
      } );
    ( "~900as",
      { Gen.seed = 0;
        n_tier1 = 6;
        n_large_transit = 20;
        n_small_transit = 100;
        n_stub = 750;
        n_content = 24;
        target_prefixes = 400
      } );
    ( "~3000as",
      { Gen.seed = 0;
        n_tier1 = 10;
        n_large_transit = 30;
        n_small_transit = 240;
        n_stub = 2670;
        n_content = 50;
        target_prefixes = 600
      } )
  ]

let route_str (rt : Propagation.route) =
  Printf.sprintf "{over=%s; path=[%s]; ann=%d}"
    (match rt.Propagation.learned_over with
    | None -> "origin"
    | Some r -> Relationship.to_string r)
    (String.concat " " (List.map Asn.to_string rt.Propagation.path))
    rt.Propagation.ann_index

(* Full-table equality, with the first diverging ASN in the failure. *)
let check_tables ~what expected actual =
  let ts = Propagation.table expected and tp = Propagation.table actual in
  let rec cmp = function
    | [], [] -> ()
    | (a, ra) :: _, [] ->
      Alcotest.failf "%s: %s=%s only in the oracle's table" what
        (Asn.to_string a) (route_str ra)
    | [], (a, ra) :: _ ->
      Alcotest.failf "%s: %s=%s only in the engine's table" what
        (Asn.to_string a) (route_str ra)
    | (a, ra) :: rest_a, (b, rb) :: rest_b ->
      if not (Asn.equal a b) then
        Alcotest.failf "%s: holder sets diverge at %s vs %s" what
          (Asn.to_string a) (Asn.to_string b)
      else if ra <> rb then
        Alcotest.failf "%s: %s selected %s in the oracle but %s in the engine"
          what (Asn.to_string a) (route_str ra) (route_str rb)
      else cmp (rest_a, rest_b)
  in
  cmp (ts, tp)

(* The announcement workloads differentially tested per world. Each is
   [name, deny, down, announcements]. *)
let scenarios (w : Gen.world) =
  let g = w.Gen.graph in
  let origin = List.hd w.Gen.stubs in
  let p = List.hd (As_graph.prefixes_of g origin) in
  let content = List.hd w.Gen.content in
  let transit1 = List.nth w.Gen.small_transit 1 in
  let transit3 = List.nth w.Gen.small_transit 3 in
  let deny_some asn (_ : Propagation.announcement) = Asn.to_int asn mod 7 = 3 in
  let first_provider = List.hd (As_graph.providers g origin) in
  [ ("plain", None, Asn.Set.empty, [ Propagation.announce origin p ]);
    ("deny", Some deny_some, Asn.Set.empty, [ Propagation.announce origin p ]);
    ( "export-to",
      None,
      Asn.Set.empty,
      [ Propagation.announce ~export_to:(Asn.Set.singleton first_provider)
          origin p
      ] );
    ( "down",
      None,
      Asn.Set.singleton transit1,
      [ Propagation.announce origin p ] );
    ( "anycast",
      None,
      Asn.Set.empty,
      [ Propagation.announce origin p; Propagation.announce content p ] );
    ( "poison",
      None,
      Asn.Set.empty,
      [ Propagation.announce ~path_suffix:[ transit3 ] origin p ] );
    ( "deny+export-to+down",
      Some deny_some,
      Asn.Set.singleton transit1,
      [ Propagation.announce ~export_to:(Asn.Set.of_list (As_graph.providers g origin))
          origin p
      ] )
  ]

let diff_one_world params seed =
  let w = Gen.generate { params with Gen.seed } in
  let g = w.Gen.graph in
  List.iter
    (fun (name, deny, down, anns) ->
      let oracle = Propagation.propagate_general ?deny ~down g anns in
      let engine = Propagation.propagate ?deny ~down g anns in
      check_tables ~what:(Printf.sprintf "seed %d %s" seed name) oracle engine)
    (scenarios w)

let test_differential params () =
  List.iter (fun seed -> diff_one_world params seed) seeds

(* ------------------------------------------------------------------ *)
(* Structural properties of every adopted table: valley-freeness,
   loop-freeness, origin-termination, catchment accounting, sorted
   accessor output. *)

(* Walking the full path from the selecting AS toward the origin, a
   provider or peer edge must never follow a peer or customer edge —
   Gao–Rexford's no-valley, at-most-one-peak rule. Unlabelled adjacent
   pairs come from poisoned suffixes and end the walk. *)
let valley_free g full_path =
  let rec rels acc = function
    | a :: (b :: _ as rest) -> (
      match As_graph.relationship g a b with
      | Some r -> rels (r :: acc) rest
      | None -> List.rev acc)
    | _ -> List.rev acc
  in
  (* Walking self -> origin the only legal shape is
     Provider* Peer? Customer*. *)
  let rec ok descended = function
    | [] -> true
    | Relationship.Provider :: rest -> (not descended) && ok false rest
    | Relationship.Peer :: rest -> (not descended) && ok true rest
    | Relationship.Customer :: rest -> ok true rest
  in
  ok false (rels [] full_path)

let loop_free full_path =
  let sorted = List.sort Asn.compare full_path in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> (not (Asn.equal a b)) && no_dup rest
    | _ -> true
  in
  no_dup sorted

let rec is_sorted = function
  | a :: (b :: _ as rest) -> Asn.compare a b < 0 && is_sorted rest
  | _ -> true

let check_table_properties ~what g anns r =
  let anns = Array.of_list anns in
  List.iter
    (fun (asn, (rt : Propagation.route)) ->
      let fp = asn :: rt.Propagation.path in
      let ann = anns.(rt.Propagation.ann_index) in
      let suffix_len = List.length ann.Propagation.path_suffix in
      (* Valley-freeness holds for the propagated portion only; the
         poisoned suffix is fake hops past the origin. *)
      let propagated =
        List.filteri (fun i _ -> i < List.length fp - suffix_len) fp
      in
      if not (valley_free g propagated) then
        Alcotest.failf "%s: valley in path at %s: %s" what (Asn.to_string asn)
          (route_str rt);
      if not (loop_free fp) then
        Alcotest.failf "%s: loop in path at %s: %s" what (Asn.to_string asn)
          (route_str rt);
      (* The path must end at the announcement's origin followed by its
         poisoned suffix (if any). *)
      let expected_tail =
        ann.Propagation.origin :: ann.Propagation.path_suffix
      in
      let tail =
        let n = List.length fp in
        List.filteri (fun i _ -> i >= n - suffix_len - 1) fp
      in
      if tail <> expected_tail then
        Alcotest.failf "%s: path at %s does not end at its origin: %s" what
          (Asn.to_string asn) (route_str rt))
    (Propagation.table r);
  let catchment_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Propagation.catchment r)
  in
  check Alcotest.int
    (Printf.sprintf "%s: catchment sums to reachable_count" what)
    (Propagation.reachable_count r)
    catchment_total;
  if not (is_sorted (Propagation.reachable r)) then
    Alcotest.failf "%s: reachable not sorted" what

(* Stability, checked from first principles: every AS holds exactly
   the best route on offer to it — its own origination or a neighbor's
   current route, exported under Gao–Rexford discipline or over a
   leaking edge, selective export, failures, loops and [deny] applied.
   A table that passes is a stable state of the routing system, which
   is what both engines claim to compute. *)
let check_stable ~what ?deny ~down ?(leak = fun _ _ -> false) g anns r =
  let anns = Array.of_list anns in
  let is_down a = Asn.Set.mem a down in
  let denied a ann = match deny with Some f -> f a ann | None -> false in
  let best a b =
    match (a, b) with
    | Some x, Some y -> if Propagation.better y x then b else a
    | None, y -> y
    | x, None -> x
  in
  let originated v =
    Array.to_list anns
    |> List.mapi (fun i (ann : Propagation.announcement) ->
           if
             Asn.equal ann.Propagation.origin v
             && (not (List.exists (Asn.equal v) ann.Propagation.path_suffix))
             && not (denied v ann)
           then
             Some
               { Propagation.learned_over = None;
                 path = ann.Propagation.path_suffix;
                 ann_index = i
               }
           else None)
    |> List.fold_left best None
  in
  let offer u v rel_uv =
    match Propagation.route_at r u with
    | None -> None
    | Some ru ->
      let ann = anns.(ru.Propagation.ann_index) in
      let selective_blocks =
        ru.Propagation.learned_over = None
        &&
        match ann.Propagation.export_to with
        | Some allowed -> not (Asn.Set.mem v allowed)
        | None -> false
      in
      if
        (Relationship.exports_to ~learned_from:ru.Propagation.learned_over
           rel_uv
        || leak u v)
        && (not (is_down u))
        && (not selective_blocks)
        && (not (List.exists (Asn.equal v) ru.Propagation.path))
        && not (denied v ann)
      then
        Some
          { Propagation.learned_over = Some (Relationship.invert rel_uv);
            path = u :: ru.Propagation.path;
            ann_index = ru.Propagation.ann_index
          }
      else None
  in
  List.iter
    (fun v ->
      let expected =
        if is_down v then None
        else
          List.fold_left
            (fun acc (u, rel_vu) ->
              best acc (offer u v (Relationship.invert rel_vu)))
            (originated v) (As_graph.neighbors g v)
      in
      let actual = Propagation.route_at r v in
      if actual <> expected then
        Alcotest.failf "%s: unstable at %s: holds %s, best on offer %s" what
          (Asn.to_string v)
          (Option.fold ~none:"none" ~some:route_str actual)
          (Option.fold ~none:"none" ~some:route_str expected))
    (As_graph.ases g)

let test_properties () =
  let params = List.assoc "~900as" sizes in
  List.iter
    (fun seed ->
      let w = Gen.generate { params with Gen.seed } in
      let g = w.Gen.graph in
      List.iter
        (fun (name, deny, down, anns) ->
          let r = Propagation.propagate ?deny ~down g anns in
          let what = Printf.sprintf "seed %d %s" seed name in
          check_table_properties ~what g anns r;
          check_stable ~what ?deny ~down g anns r;
          let via = List.hd w.Gen.large_transit in
          if not (is_sorted (Propagation.routes_via r via)) then
            Alcotest.failf "seed %d %s: routes_via not sorted" seed name)
        (scenarios w))
    seeds

(* ------------------------------------------------------------------ *)
(* Determinism regression: the engine's queue visit order is
   a function of the inputs alone (queues are seeded in sorted ASN
   order, not Hashtbl.iter order), so two identical runs produce
   identical visit traces. *)

let test_visit_trace_deterministic () =
  let params = List.assoc "~900as" sizes in
  let w = Gen.generate { params with Gen.seed = 42 } in
  let g = w.Gen.graph in
  let origin = List.hd w.Gen.stubs in
  let p = List.hd (As_graph.prefixes_of g origin) in
  let anns =
    [ Propagation.announce origin p;
      Propagation.announce (List.hd w.Gen.content) p
    ]
  in
  let trace () =
    let visits = ref [] in
    let r =
      Propagation.propagate ~visit:(fun a -> visits := a :: !visits) g anns
    in
    (List.rev !visits, r)
  in
  let t1, r1 = trace () in
  let t2, r2 = trace () in
  check Alcotest.bool "trace non-empty" true (t1 <> []);
  check
    Alcotest.(list int)
    "identical visit traces"
    (List.map Asn.to_int t1) (List.map Asn.to_int t2);
  check_tables ~what:"same-input reruns" r1 r2

(* ------------------------------------------------------------------ *)
(* Coalesced repropagation: a small testbed driven by a seeded stream
   of ops — client announcements and withdrawals at the sites,
   external injections and retractions, failures, route leaks and ROV
   — some applied one by one, most inside (possibly nested, possibly
   raising) [Testbed.batch]es. A model keeps each prefix's active
   announcement list as the testbed's export wiring builds it. After
   every step, and at reads inside a batch, each prefix's result must
   equal, as a Marshal digest, a fresh propagation of the model's
   inputs; after a step, reading must not propagate anything. *)

module Testbed = Peering_core.Testbed
module Client = Peering_core.Client
module Server = Peering_core.Server
module Rpki = Peering_bgp.Rpki

type source = Site of string | Ext of Asn.t

type model = {
  mutable active : (source * Propagation.announcement) list Prefix.Map.t;
  mutable down : Asn.Set.t;
  mutable leaks : (Asn.t * Asn.t) list;
  mutable rov : (Rpki.t * Asn.Set.t) option;
}

(* Replacing a source's announcement moves it to the end of the list,
   as the testbed does. *)
let model_set m prefix src ann =
  let cur = Option.value (Prefix.Map.find_opt prefix m.active) ~default:[] in
  let rest = List.filter (fun (s, _) -> s <> src) cur in
  let next = match ann with Some a -> rest @ [ (src, a) ] | None -> rest in
  m.active <-
    (if next = [] then Prefix.Map.remove prefix m.active
     else Prefix.Map.add prefix next m.active)

let digest r =
  Digest.to_hex (Digest.string (Marshal.to_string (Propagation.table r) []))

let testbed_sites = [ ("u0", 2); ("u1", 2); ("u2", 1); ("u3", 2) ]

let oracle_digest tb m prefix =
  match Prefix.Map.find_opt prefix m.active with
  | None | Some [] -> None
  | Some srcs ->
    let g = Testbed.graph tb in
    let anns = List.map snd srcs in
    let site_asns = List.map Testbed.site_asn (Testbed.sites tb) in
    let deny =
      Option.map
        (fun (roas, adopters) asn (ann : Propagation.announcement) ->
          let origin =
            match List.rev ann.Propagation.path_suffix with
            | last :: _ -> last
            | [] ->
              if List.exists (Asn.equal ann.Propagation.origin) site_asns
              then Testbed.peering_asn
              else ann.Propagation.origin
          in
          Asn.Set.mem asn adopters
          && Rpki.validate roas ~prefix ~origin:(Some origin) = Rpki.Invalid)
        m.rov
    in
    let down = m.down in
    Some
      (match m.leaks with
      | [] ->
        let engine = Propagation.propagate ?deny ~down g anns in
        let general = Propagation.propagate_general ?deny ~down g anns in
        check_tables ~what:"model: propagate vs propagate_general" general
          engine;
        check_stable ~what:"model: propagate" ?deny ~down g anns engine;
        digest engine
      | leaks ->
        let leak u v = List.exists (fun (a, b) -> a = u && b = v) leaks in
        let general = Propagation.propagate_general ?deny ~down ~leak g anns in
        check_stable ~what:"model: leaking propagate_general" ?deny ~down
          ~leak g anns general;
        digest general)

let check_prefix ~what tb m prefix =
  let actual = Option.map digest (Testbed.result_for tb prefix) in
  let expected = oracle_digest tb m prefix in
  if actual <> expected then
    Alcotest.failf "%s: %s result %s, fresh propagation %s" what
      (Prefix.to_string prefix)
      (Option.value actual ~default:"none")
      (Option.value expected ~default:"none")

let rounds () =
  Peering_obs.Metrics.counter_value "topo.propagation.rounds"

let test_testbed_seed seed =
  let params = List.assoc "~900as" sizes in
  let tb =
    Testbed.build
      ~params:
        { Testbed.default_params with
          Testbed.world = params;
          seed;
          university_sites = testbed_sites;
          with_amsix = false;
          with_phoenix = false;
          bilateral_requests = false
        }
      ()
  in
  let rng = Random.State.make [| 0xba7c; seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let w = Testbed.world tb in
  let g = Testbed.graph tb in
  let site_names = List.map fst testbed_sites in
  let clients =
    List.map
      (fun id ->
        let exp =
          match Testbed.new_experiment tb ~id () with
          | Ok e -> e
          | Error e -> Alcotest.fail e
        in
        let c = Client.create ~id:("c-" ^ id) ~experiment:exp () in
        Testbed.connect_client tb c ~sites:site_names;
        (c, List.hd exp.Peering_core.Experiment.prefixes))
      [ Printf.sprintf "diff-%d-a" seed; Printf.sprintf "diff-%d-b" seed ]
  in
  (* A prefix of the simulated Internet, for injections no client
     competes with. *)
  let world_prefix =
    List.hd (As_graph.prefixes_of g (List.hd w.Gen.stubs))
  in
  let prefixes = world_prefix :: List.map snd clients in
  let transit = Gen.all_transit w in
  let origins = transit @ w.Gen.stubs @ w.Gen.content in
  let failable =
    List.map Testbed.site_asn (Testbed.sites tb)
    @ List.concat_map (Testbed.peers_at tb) site_names
    @ transit
  in
  let m =
    { active = Prefix.Map.empty; down = Asn.Set.empty; leaks = []; rov = None }
  in
  let subset l =
    match List.filter (fun _ -> Random.State.bool rng) l with
    | [] -> [ pick l ]
    | l -> l
  in
  let op () =
    match Random.State.int rng 9 with
    | 0 | 1 ->
      let c, p = pick clients in
      let servers = subset site_names in
      List.iter
        (fun (site, r) ->
          match r with
          | Ok () ->
            let srv = Testbed.site_server (Testbed.site_exn tb site) in
            let ann =
              Propagation.announce
                ~export_to:(Asn.Set.of_list (Server.peer_asns srv))
                (Testbed.site_asn (Testbed.site_exn tb site))
                p
            in
            model_set m p (Site site) (Some ann)
          | Error _ -> ())
        (Client.announce c ~servers p)
    | 2 ->
      let c, p = pick clients in
      let servers = subset site_names in
      Client.withdraw c ~servers p;
      List.iter (fun site -> model_set m p (Site site) None) servers
    | 3 | 4 ->
      let origin = pick origins and p = pick prefixes in
      let path_suffix =
        if Random.State.int rng 4 = 0 then [ pick transit ] else []
      in
      Testbed.inject_external tb ~origin ~path_suffix p;
      model_set m p (Ext origin)
        (Some (Propagation.announce ~path_suffix origin p))
    | 5 ->
      let p = pick prefixes in
      let origin =
        match
          List.filter_map
            (function Ext a, _ -> Some a | Site _, _ -> None)
            (Option.value (Prefix.Map.find_opt p m.active) ~default:[])
        with
        | [] -> pick origins
        | l -> pick l
      in
      Testbed.retract_external tb ~origin p;
      model_set m p (Ext origin) None
    | 6 ->
      let a = pick failable in
      let down = not (Asn.Set.mem a m.down) in
      Testbed.set_down tb a down;
      m.down <- (if down then Asn.Set.add a m.down else Asn.Set.remove a m.down)
    | 7 ->
      let edges =
        if Random.State.bool rng then []
        else
          List.init
            (1 + Random.State.int rng 2)
            (fun _ ->
              let u = pick transit in
              (u, fst (pick (As_graph.neighbors g u))))
      in
      Testbed.set_leak_edges tb edges;
      m.leaks <- edges
    | _ ->
      if Random.State.bool rng then begin
        Testbed.clear_rov tb;
        m.rov <- None
      end
      else begin
        let roas =
          List.fold_left
            (fun acc (_, p) -> Rpki.add_roa acc ~prefix:p Testbed.peering_asn)
            Rpki.empty clients
        in
        let adopters =
          Asn.Set.of_list (List.filter (fun _ -> Random.State.int rng 3 = 0) transit)
        in
        Testbed.set_rov tb ~roas ~adopters;
        m.rov <- Some (roas, adopters)
      end
  in
  let ops what n =
    for _ = 1 to n do
      op ();
      if Random.State.int rng 5 = 0 then
        check_prefix ~what:(what ^ ", read inside") tb m (pick prefixes)
    done
  in
  for step = 1 to 40 do
    let what = Printf.sprintf "seed %d step %d" seed step in
    (match Random.State.int rng 4 with
    | 0 -> op ()
    | 1 -> Testbed.batch tb (fun () -> ops what (1 + Random.State.int rng 6))
    | 2 ->
      Testbed.batch tb (fun () ->
          ops what (Random.State.int rng 3);
          Testbed.batch tb (fun () -> ops what (1 + Random.State.int rng 3));
          ops what (Random.State.int rng 3))
    | _ -> (
      try
        Testbed.batch tb (fun () ->
            ops what (1 + Random.State.int rng 4);
            raise Exit)
      with Exit -> ()));
    let before = rounds () in
    List.iter (fun p -> ignore (Testbed.result_for tb p)) prefixes;
    if rounds () <> before then
      Alcotest.failf "%s: a read after the step propagated" what;
    List.iter (check_prefix ~what tb m) prefixes;
    Peering_sim.Engine.run_for (Testbed.engine tb) 3600.0
  done

let test_testbed_batches () = List.iter test_testbed_seed seeds

(* ------------------------------------------------------------------ *)
(* Relationship truth tables and the total-order laws of [better]: the
   fixpoint both engines reach is unique only because [better] is a
   strict total order. *)

let all_rels = [ Relationship.Customer; Relationship.Provider; Relationship.Peer ]

let test_invert_truth_table () =
  check Alcotest.bool "invert customer" true
    (Relationship.invert Relationship.Customer = Relationship.Provider);
  check Alcotest.bool "invert provider" true
    (Relationship.invert Relationship.Provider = Relationship.Customer);
  check Alcotest.bool "invert peer" true
    (Relationship.invert Relationship.Peer = Relationship.Peer);
  List.iter
    (fun r ->
      check Alcotest.bool "invert involutive" true
        (Relationship.invert (Relationship.invert r) = r))
    all_rels

let test_exports_to_truth_table () =
  let expect learned_from to_rel =
    match (learned_from, to_rel) with
    (* own routes and customer routes export everywhere *)
    | None, _ | Some Relationship.Customer, _ -> true
    (* peer and provider routes export only to customers *)
    | (Some Relationship.Peer | Some Relationship.Provider), to_rel ->
      to_rel = Relationship.Customer
  in
  List.iter
    (fun learned_from ->
      List.iter
        (fun to_rel ->
          check Alcotest.bool
            (Printf.sprintf "exports_to %s -> %s"
               (match learned_from with
               | None -> "origin"
               | Some r -> Relationship.to_string r)
               (Relationship.to_string to_rel))
            (expect learned_from to_rel)
            (Relationship.exports_to ~learned_from to_rel))
        all_rels)
    (None :: List.map Option.some all_rels)

let test_class_pref () =
  check Alcotest.int "origin" 3 (Propagation.class_pref None);
  check Alcotest.int "customer" 2
    (Propagation.class_pref (Some Relationship.Customer));
  check Alcotest.int "peer" 1 (Propagation.class_pref (Some Relationship.Peer));
  check Alcotest.int "provider" 0
    (Propagation.class_pref (Some Relationship.Provider))

let route_arb =
  QCheck.make
    ~print:(fun r -> route_str r)
    QCheck.Gen.(
      map3
        (fun cls path idx ->
          { Propagation.learned_over = cls;
            path = List.map Asn.of_int path;
            ann_index = idx
          })
        (oneofl (None :: List.map Option.some all_rels))
        (list_size (int_range 0 4) (int_range 1 30))
        (int_range 0 3))

(* The sort key [better] compares on: full route content. Equal keys
   mean the routes are indistinguishable to the comparator, so the
   totality law is stated modulo the key. *)
let key (r : Propagation.route) =
  ( Propagation.class_pref r.Propagation.learned_over,
    List.map Asn.to_int r.Propagation.path,
    r.Propagation.ann_index )

let prop_better_irreflexive =
  QCheck.Test.make ~name:"better is irreflexive" ~count:200 route_arb
    (fun r -> not (Propagation.better r r))

let prop_better_antisymmetric =
  QCheck.Test.make ~name:"better is antisymmetric" ~count:500
    (QCheck.pair route_arb route_arb)
    (fun (a, b) -> not (Propagation.better a b && Propagation.better b a))

let prop_better_total =
  QCheck.Test.make ~name:"better is total on distinct keys" ~count:500
    (QCheck.pair route_arb route_arb)
    (fun (a, b) ->
      key a = key b || Propagation.better a b || Propagation.better b a)

let prop_better_transitive =
  QCheck.Test.make ~name:"better is transitive" ~count:1000
    (QCheck.triple route_arb route_arb route_arb)
    (fun (a, b, c) ->
      (not (Propagation.better a b && Propagation.better b c))
      || Propagation.better a c)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "propagation-diff: %d seeds (set PROPAGATION_DIFF_SEEDS to widen)\n%!"
    n_seeds;
  Alcotest.run "propagation-diff"
    [ ( "differential",
        List.map
          (fun (label, params) ->
            tc (Printf.sprintf "propagate = general (%s)" label)
              `Quick (test_differential params))
          sizes );
      ( "testbed",
        [ tc "batched ops = fresh propagation" `Quick test_testbed_batches ]
      );
      ( "properties",
        [ tc "valley-free, loop-free, origin-terminated, accounted" `Quick
            test_properties
        ] );
      ( "determinism",
        [ tc "visit trace identical across reruns" `Quick
            test_visit_trace_deterministic
        ] );
      ( "order-laws",
        [ tc "invert truth table" `Quick test_invert_truth_table;
          tc "exports_to truth table" `Quick test_exports_to_truth_table;
          tc "class_pref values" `Quick test_class_pref;
          QCheck_alcotest.to_alcotest prop_better_irreflexive;
          QCheck_alcotest.to_alcotest prop_better_antisymmetric;
          QCheck_alcotest.to_alcotest prop_better_total;
          QCheck_alcotest.to_alcotest prop_better_transitive
        ] )
    ]
