open Peering_net
open Peering_core
module Engine = Peering_sim.Engine
module Gen = Peering_topo.Gen

let check = Alcotest.check
let tc = Alcotest.test_case
let asn = Asn.of_int
let pfx = Prefix.of_string_exn

(* ------------------------------------------------------------------ *)
(* Experiment + Controller *)

let test_controller_vetting () =
  let e = Engine.create () in
  let ctl =
    Controller.create e ~supply:[ pfx "184.164.224.0/19" ] ()
  in
  (* too-short description rejected *)
  (match Controller.propose ctl ~id:"x" ~owner:"eve" ~description:"short" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vetting passed a junk proposal");
  (* good proposal approved with resources *)
  match
    Controller.propose ctl ~id:"lifeguard" ~owner:"ethan"
      ~description:"reroute around persistent interdomain failures"
      ~n_prefixes:2 ~n_private_asns:2 ()
  with
  | Error err -> Alcotest.fail err
  | Ok exp ->
    check Alcotest.int "prefixes allocated" 2
      (List.length exp.Experiment.prefixes);
    check Alcotest.int "asns allocated" 2
      (List.length exp.Experiment.private_asns);
    check Alcotest.bool "asns private" true
      (List.for_all Asn.is_private exp.Experiment.private_asns);
    check Alcotest.bool "approved" true
      (exp.Experiment.status = Experiment.Approved);
    (* duplicate id rejected *)
    (match
       Controller.propose ctl ~id:"lifeguard" ~owner:"other"
         ~description:"a second experiment with the same identifier" ()
     with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "duplicate id accepted");
    Controller.activate ctl exp;
    check Alcotest.bool "active" true (Experiment.is_active exp);
    check Alcotest.bool "owns allocation" true
      (Experiment.owns_prefix exp (List.hd exp.Experiment.prefixes));
    let before = Controller.available_blocks ctl in
    Controller.stop ctl exp;
    check Alcotest.int "blocks returned" (before + 2)
      (Controller.available_blocks ctl)

let test_controller_pool_exhaustion () =
  let e = Engine.create () in
  let ctl =
    Controller.create e ~supply:[ pfx "184.164.224.0/22" ]
      ~max_prefixes_per_experiment:4 ()
  in
  (* /22 = 4 blocks of /24 *)
  (match
     Controller.propose ctl ~id:"big" ~owner:"o"
       ~description:"an experiment requesting the whole address pool"
       ~n_prefixes:4 ()
   with
  | Ok _ -> ()
  | Error err -> Alcotest.fail err);
  match
    Controller.propose ctl ~id:"late" ~owner:"o"
      ~description:"another experiment arriving after pool exhaustion" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "allocated from empty pool"

let test_controller_scheduling () =
  let e = Engine.create () in
  let ctl = Controller.create e ~supply:[ pfx "184.164.224.0/22" ] () in
  let fired = ref None and notified = ref None in
  Controller.schedule_announcement ctl ~at:100.0
    ~action:(fun () -> fired := Some (Engine.now e))
    ~notify:(fun t -> notified := Some t)
    ();
  check Alcotest.int "pending" 1 (Controller.scheduled_count ctl);
  Engine.run ~until:50.0 e;
  check Alcotest.bool "not yet" true (!fired = None);
  Engine.run ~until:200.0 e;
  check Alcotest.(option (float 1e-9)) "fired on time" (Some 100.0) !fired;
  check Alcotest.(option (float 1e-9)) "researcher notified" (Some 100.0)
    !notified;
  check Alcotest.int "drained" 0 (Controller.scheduled_count ctl)

let test_controller_donation () =
  let e = Engine.create () in
  let ctl = Controller.create e ~supply:[ pfx "184.164.224.0/24" ] () in
  check Alcotest.int "one block" 1 (Controller.available_blocks ctl);
  Controller.donate_supply ctl (pfx "198.51.100.0/23");
  check Alcotest.int "donated blocks" 3 (Controller.available_blocks ctl);
  check Alcotest.bool "owns donation" true
    (Controller.owns ctl (pfx "198.51.100.0/24"))

(* ------------------------------------------------------------------ *)
(* Safety *)

let active_experiment () =
  let exp =
    Experiment.make ~id:"e1" ~owner:"o"
      ~description:"a perfectly legitimate routing experiment" ()
  in
  exp.Experiment.prefixes <- [ pfx "184.164.224.0/24" ];
  exp.Experiment.private_asns <- [ asn 64512 ];
  exp.Experiment.status <- Experiment.Active;
  exp

let mk_safety () =
  Safety.create ~peering_asn:(asn 47065)
    ~owns:(fun p -> Prefix.subsumes (pfx "184.164.224.0/19") p)
    ()

let test_safety_hijack_blocked () =
  let s = mk_safety () in
  let exp = active_experiment () in
  (* announcing google's prefix is a hijack *)
  match
    Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
      ~prefix:(pfx "8.8.8.0/24") ~path_suffix:[]
  with
  | Error Safety.Prefix_not_owned -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Safety.reason_to_string e)
  | Ok () -> Alcotest.fail "hijack permitted"

let test_safety_isolation () =
  let s = mk_safety () in
  let exp = active_experiment () in
  (* PEERING space, but not this experiment's block *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.225.0/24") ~path_suffix:[]
   with
  | Error Safety.Prefix_not_allocated -> ()
  | _ -> Alcotest.fail "cross-experiment announcement permitted");
  (* two clients, same prefix: second blocked *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "legit blocked: %s" (Safety.reason_to_string e));
  match
    Safety.check_announce s ~now:10.0 ~client:"c2" ~experiment:exp
      ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[]
  with
  | Error Safety.Announced_by_other_experiment -> ()
  | _ -> Alcotest.fail "duplicate announcement permitted"

let test_safety_inactive () =
  let s = mk_safety () in
  let exp = active_experiment () in
  exp.Experiment.status <- Experiment.Stopped;
  match
    Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
      ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[]
  with
  | Error Safety.Experiment_not_active -> ()
  | _ -> Alcotest.fail "stopped experiment announced"

let test_safety_poisoning_permission () =
  let s = mk_safety () in
  let exp = active_experiment () in
  (* public ASN in suffix without poison rights: rejected *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[ asn 3356 ]
   with
  | Error (Safety.Poisoning_not_permitted _) -> ()
  | _ -> Alcotest.fail "unvetted poisoning permitted");
  (* private suffix fine, and stripped on sanitize *)
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp
       ~prefix:(pfx "184.164.224.0/24") ~path_suffix:[ asn 64512 ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "private suffix blocked: %s" (Safety.reason_to_string e));
  check Alcotest.(list int) "private stripped" []
    (List.map Asn.to_int (Safety.sanitize_suffix s exp [ asn 64512 ]));
  (* vetted poisoning passes and survives sanitize *)
  let exp2 =
    Experiment.make ~id:"e2" ~owner:"o"
      ~description:"a lifeguard style failure avoidance experiment"
      ~may_poison:true ()
  in
  exp2.Experiment.prefixes <- [ pfx "184.164.225.0/24" ];
  exp2.Experiment.status <- Experiment.Active;
  (match
     Safety.check_announce s ~now:0.0 ~client:"c9" ~experiment:exp2
       ~prefix:(pfx "184.164.225.0/24") ~path_suffix:[ asn 3356 ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "vetted poisoning blocked: %s" (Safety.reason_to_string e));
  check Alcotest.(list int) "poison survives" [ 3356 ]
    (List.map Asn.to_int (Safety.sanitize_suffix s exp2 [ asn 3356 ]))

let test_safety_dampening () =
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  let announce now =
    Safety.check_announce s ~now ~client:"flappy" ~experiment:exp ~prefix:p
      ~path_suffix:[]
  in
  (match announce 0.0 with Ok () -> () | Error _ -> Alcotest.fail "first");
  Safety.note_withdraw s ~now:1.0 ~client:"flappy" ~prefix:p;
  (match announce 1.5 with Ok () -> () | Error _ -> Alcotest.fail "second");
  Safety.note_withdraw s ~now:2.0 ~client:"flappy" ~prefix:p;
  (match announce 2.2 with Ok () -> () | Error _ -> Alcotest.fail "third");
  Safety.note_withdraw s ~now:2.5 ~client:"flappy" ~prefix:p;
  (* three rapid withdrawals => penalty ~3000 > suppress threshold *)
  match announce 3.0 with
  | Error (Safety.Dampened until) ->
    check Alcotest.bool "reuse in future" true (until > 3.0);
    check Alcotest.bool "suppressed_until agrees" true
      (Safety.suppressed_until s ~now:3.0 ~client:"flappy" p <> None)
  | _ -> Alcotest.fail "flapping client not dampened"

let test_safety_dampened_while_registered () =
  (* check_announce ordering: the registration conflict is reported
     before dampening, and dampening never blocks the registrant. *)
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  let announce client now =
    Safety.check_announce s ~now ~client ~experiment:exp ~prefix:p
      ~path_suffix:[]
  in
  (match announce "c1" 0.0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "c1 blocked: %s" (Safety.reason_to_string e));
  (* c2 flaps its own dampening state; c1's registration is untouched *)
  Safety.note_withdraw s ~now:1.0 ~client:"c2" ~prefix:p;
  Safety.note_withdraw s ~now:1.5 ~client:"c2" ~prefix:p;
  Safety.note_withdraw s ~now:2.0 ~client:"c2" ~prefix:p;
  check Alcotest.(option string) "c1 still registered" (Some "c1")
    (Safety.announced_by s p);
  check Alcotest.bool "c2 is suppressed" true
    (Safety.suppressed_until s ~now:2.5 ~client:"c2" p <> None);
  (* c2 is both dampened and conflicting; the conflict must win *)
  (match announce "c2" 2.5 with
  | Error Safety.Announced_by_other_experiment -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Safety.reason_to_string e)
  | Ok () -> Alcotest.fail "conflicting announcement permitted");
  (* the registrant itself carries no penalty and may re-announce *)
  match announce "c1" 2.5 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "registrant blocked: %s" (Safety.reason_to_string e)

let test_safety_announce_after_release () =
  (* release frees the registration without counting as a flap, but
     keeps the dampening history accumulated by earlier withdrawals. *)
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  let announce client now =
    Safety.check_announce s ~now ~client ~experiment:exp ~prefix:p
      ~path_suffix:[]
  in
  (match announce "c1" 0.0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "c1 blocked: %s" (Safety.reason_to_string e));
  check Alcotest.bool "first release succeeds" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Released);
  check Alcotest.(option string) "released" None (Safety.announced_by s p);
  (* releasing is not a flap: an immediate re-announce is fine *)
  (match announce "c1" 0.1 with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "re-announce after release blocked: %s"
      (Safety.reason_to_string e));
  ignore (Safety.release s ~client:"c1" ~prefix:p);
  (* another client may claim the prefix once it is released *)
  (match announce "c2" 1.0 with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "c2 blocked after release: %s" (Safety.reason_to_string e));
  (* but release does not launder dampening history: flap, release,
     and the penalty still suppresses the next announcement *)
  Safety.note_withdraw s ~now:1.5 ~client:"c2" ~prefix:p;
  (match announce "c2" 1.6 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second: %s" (Safety.reason_to_string e));
  Safety.note_withdraw s ~now:2.0 ~client:"c2" ~prefix:p;
  (match announce "c2" 2.1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "third: %s" (Safety.reason_to_string e));
  Safety.note_withdraw s ~now:2.4 ~client:"c2" ~prefix:p;
  ignore (Safety.release s ~client:"c2" ~prefix:p);
  match announce "c2" 2.5 with
  | Error (Safety.Dampened until) ->
    check Alcotest.bool "reuse in future" true (until > 2.5)
  | _ -> Alcotest.fail "dampening history survived release"

(* ------------------------------------------------------------------ *)
(* Capability (Table 1) *)

let test_capability_claims () =
  check Alcotest.bool "PEERING meets all goals" true
    (Capability.peering_meets_all ());
  check Alcotest.int "no pair of other systems covers all" 0
    (List.length (Capability.combinations_covering_all ()));
  (* spot-check cells against the paper *)
  check Alcotest.bool "TP interdomain" true
    (Capability.support Capability.Transit_portal Capability.Interdomain
     = Capability.Full);
  check Alcotest.bool "beacons limited interdomain" true
    (Capability.support Capability.Beacons Capability.Interdomain
     = Capability.Limited);
  check Alcotest.bool "mininet no rich conn" true
    (Capability.support Capability.Mininet Capability.Rich_connectivity
     = Capability.None_);
  check Alcotest.bool "render mentions all testbeds" true
    (List.for_all
       (fun t ->
         let abbrev = Capability.testbed_abbrev t in
         let rendered = Capability.render () in
         let len_r = String.length rendered and len_a = String.length abbrev in
         let rec find i =
           i + len_a <= len_r
           && (String.sub rendered i len_a = abbrev || find (i + 1))
         in
         find 0)
       Capability.testbeds)

(* ------------------------------------------------------------------ *)
(* Testbed integration *)

let small_world =
  { Gen.default_params with
    Gen.n_tier1 = 5;
    n_large_transit = 12;
    n_small_transit = 80;
    n_stub = 900;
    n_content = 15;
    target_prefixes = 4000
  }

let small_params =
  { Testbed.default_params with
    Testbed.world = small_world;
    university_sites = [ ("gatech01", 2) ]
  }

let build () = Testbed.build ~params:small_params ()

let testbed = lazy (build ())

let test_testbed_build () =
  let t = Lazy.force testbed in
  let names = List.map Testbed.site_name (Testbed.sites t) in
  check Alcotest.(list string) "sites"
    [ "amsterdam01"; "gatech01"; "phoenix01" ]
    (List.sort String.compare names);
  (* AMS-IX yields hundreds of peers *)
  let ams_peers = Testbed.peers_at t "amsterdam01" in
  check Alcotest.bool "hundreds of peers" true (List.length ams_peers >= 554);
  check Alcotest.int "university providers" 2
    (List.length (Testbed.peers_at t "gatech01"))

let test_testbed_announce_reaches_internet () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"reach" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-reach" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let p = List.hd exp.Experiment.prefixes in
  let outcomes = Client.announce client p in
  List.iter
    (fun (site, r) ->
      match r with
      | Ok () -> ()
      | Error reason ->
        Alcotest.failf "%s rejected: %s" site (Safety.reason_to_string reason))
    outcomes;
  let reach = Testbed.reach_count t p in
  let total = Peering_topo.As_graph.n_ases (Testbed.graph t) in
  check Alcotest.bool "most of the Internet reaches the prefix" true
    (reach > total / 2);
  (* path from a random stub ends at PEERING *)
  let w = Testbed.world t in
  let stub = List.nth w.Gen.stubs 10 in
  (match Testbed.path_from t stub p with
  | Some path ->
    check Alcotest.int "path terminates at AS 47065" 47065
      (Asn.to_int (List.nth path (List.length path - 1)))
  | None -> Alcotest.fail "stub cannot reach the prefix");
  (* collector saw the export *)
  check Alcotest.bool "collector recorded" true
    (Peering_measure.Collector.n_entries (Testbed.collector t) > 0);
  Client.withdraw client p;
  check Alcotest.int "withdrawn: unreachable" 0 (Testbed.reach_count t p)

let test_testbed_selective_announcement () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"selective" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-sel" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  (* announce to every AMS peer *)
  ignore (Client.announce client p);
  let full = Testbed.reach_count t p in
  Client.withdraw client p;
  (* announce to just three peers *)
  let three =
    List.filteri (fun i _ -> i < 3) (Testbed.peers_at t "amsterdam01")
  in
  ignore (Client.announce client ~peers:three p);
  let limited = Testbed.reach_count t p in
  check Alcotest.bool "selective reaches fewer ASes" true (limited < full);
  check Alcotest.bool "but still propagates" true (limited > 0);
  Client.withdraw client p

let test_testbed_hijack_contained () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"attacker" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-evil" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  (* try to hijack a real prefix of the simulated Internet *)
  let w = Testbed.world t in
  let victim_prefix =
    List.hd
      (Peering_topo.As_graph.prefixes_of (Testbed.graph t)
         (List.hd w.Gen.stubs))
  in
  (match Client.announce client victim_prefix with
  | [ (_, Error Safety.Prefix_not_owned) ] -> ()
  | _ -> Alcotest.fail "hijack not contained");
  (* the Internet never saw it *)
  check Alcotest.int "no propagation" 0 (Testbed.reach_count t victim_prefix)

let test_testbed_anycast_catchment () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"anycast" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-any" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  (* every AS with a route enters through some site *)
  let w = Testbed.world t in
  let sites =
    List.filter_map
      (fun stub -> Testbed.ingress_site t ~from_asn:stub p)
      (List.filteri (fun i _ -> i < 200) w.Gen.stubs)
  in
  check Alcotest.bool "catchment observed" true (List.length sites > 100);
  let distinct = List.sort_uniq String.compare sites in
  check Alcotest.bool "traffic splits across sites" true
    (List.length distinct >= 2);
  Client.withdraw client p

let test_testbed_failure_avoidance () =
  (* LIFEGUARD-style: a transit AS fails; announcements still reach via
     other paths after reroute. *)
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"lifeguard-it" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-lg" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "gatech01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let before = Testbed.reach_count t p in
  (* kill one of the university providers *)
  let provider = List.hd (Testbed.peers_at t "gatech01") in
  Testbed.set_down t provider true;
  let after = Testbed.reach_count t p in
  check Alcotest.bool "connectivity survives via second provider" true
    (after > 0);
  check Alcotest.bool "failure shrinks or keeps reach" true (after <= before);
  Testbed.set_down t provider false;
  check Alcotest.int "recovery" before (Testbed.reach_count t p);
  Client.withdraw client p

let test_testbed_moas_hijack_study () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"moas" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-moas" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let legit = Testbed.reach_count t p in
  (* an attacker in the wild announces our prefix *)
  let w = Testbed.world t in
  let attacker = List.nth w.Gen.small_transit 5 in
  Testbed.inject_external t ~origin:attacker p;
  (match Testbed.result_for t p with
  | None -> Alcotest.fail "no result"
  | Some r ->
    let catchment = Peering_topo.Propagation.catchment r in
    check Alcotest.int "two origins compete" 2 (List.length catchment));
  (* some ASes are captured by the attacker *)
  let captured =
    List.length
      (List.filter
         (fun stub -> Testbed.ingress_site t ~from_asn:stub p = None)
         (List.filteri (fun i _ -> i < 200) (Testbed.world t).Gen.stubs))
  in
  check Alcotest.bool "hijack diverts some ASes" true (captured > 0);
  Testbed.retract_external t ~origin:attacker p;
  check Alcotest.int "retraction restores" legit (Testbed.reach_count t p);
  Client.withdraw client p

let test_testbed_client_receives_routes () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"rx" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-rx" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "gatech01" ];
  let fed = Testbed.feed_peer_routes t ~site:"gatech01" ~max_per_peer:50 () in
  check Alcotest.bool "routes fed" true (fed > 0);
  check Alcotest.bool "client rib populated" true (Client.route_count client > 0);
  (* candidates carry per-peer multiplicity: same prefix can arrive
     from both providers *)
  let multi =
    Peering_bgp.Rib.fold_best
      (fun prefix _ acc ->
        max acc (List.length (Client.candidates client prefix)))
      (Client.rib client) 0
  in
  check Alcotest.bool "client sees per-peer routes" true (multi >= 1)

let test_server_session_stats () =
  let t = Lazy.force testbed in
  let server = Testbed.site_server (Testbed.site_exn t "amsterdam01") in
  let stats = Server.session_stats server in
  check Alcotest.bool "per-peer mode default" true
    (stats.Server.mode = Server.Per_peer_sessions);
  check Alcotest.int "peer sessions = peers" stats.Server.n_peers
    stats.Server.peer_sessions;
  check Alcotest.int "client sessions = clients x peers"
    (stats.Server.n_clients * stats.Server.n_peers)
    stats.Server.client_sessions

let test_client_ignore_peer () =
  let t = Lazy.force testbed in
  let exp =
    match Testbed.new_experiment t ~id:"ignore" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-ign" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "gatech01" ];
  ignore (Testbed.feed_peer_routes t ~site:"gatech01" ~max_per_peer:50 ());
  let before = Client.route_count client in
  let peer = List.hd (Testbed.peers_at t "gatech01") in
  Client.ignore_peer client ~server:"gatech01" ~peer;
  check Alcotest.bool "ignored peer's routes dropped" true
    (Client.route_count client < before)

(* ------------------------------------------------------------------ *)
(* Portal *)

let test_portal_accounts () =
  let t = Lazy.force testbed in
  let portal = Portal.create t in
  (match Portal.register portal ~username:"alice" ~email:"a@usc.edu"
           ~affiliation:"USC" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Portal.register portal ~username:"alice" ~email:"x@y.edu"
           ~affiliation:"other" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate username accepted");
  (* no affiliation, non-.edu address: held *)
  (match Portal.register portal ~username:"anon" ~email:"x@example.com"
           ~affiliation:"  " with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "anonymous account auto-approved");
  check Alcotest.bool "approved" true
    (match Portal.account portal "alice" with
    | Some a -> a.Portal.approved
    | None -> false)

let test_portal_board () =
  let t = Lazy.force testbed in
  let portal = Portal.create t in
  (match Portal.register portal ~username:"bob" ~email:"b@gatech.edu"
           ~affiliation:"Georgia Tech" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a good proposal and a bad one (unjustified poisoning) *)
  (match
     Portal.submit portal ~username:"bob" ~id:"portal-good"
       ~description:
         "measure interdomain route convergence with controlled announcements"
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Portal.submit portal ~username:"bob" ~id:"portal-bad"
       ~description:"a generic study that wants dangerous capabilities"
       ~wants_poison:true ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "two pending" 2 (List.length (Portal.pending portal));
  let outcomes = Portal.run_board portal in
  check Alcotest.int "queue drained" 0 (List.length (Portal.pending portal));
  (match List.assoc "portal-good" outcomes with
  | Ok e ->
    check Alcotest.bool "provisioned active" true (Experiment.is_active e)
  | Error e -> Alcotest.failf "good proposal rejected: %s" e);
  (match List.assoc "portal-bad" outcomes with
  | Error reason ->
    check Alcotest.bool "mentions poisoning" true
      (String.length reason > 0)
  | Ok _ -> Alcotest.fail "unjustified poisoning approved");
  (* a justified poisoning proposal passes the safety reviewer *)
  (match
     Portal.submit portal ~username:"bob" ~id:"portal-poison"
       ~description:
         "LIFEGUARD-style rerouting using BGP poisoning to avoid failures"
       ~wants_poison:true ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match List.assoc "portal-poison" (Portal.run_board portal) with
  | Ok e -> check Alcotest.bool "may poison" true e.Experiment.may_poison
  | Error e -> Alcotest.failf "justified poisoning rejected: %s" e

let test_portal_provisioning () =
  let t = Lazy.force testbed in
  let portal = Portal.create t in
  (match Portal.register portal ~username:"carol" ~email:"c@ufmg.br"
           ~affiliation:"UFMG" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match
     Portal.submit portal ~username:"carol" ~id:"portal-prov"
       ~description:"anycast catchment measurements from all PEERING sites"
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Portal.run_board portal with
  | [ (_, Ok _) ] -> ()
  | _ -> Alcotest.fail "provisioning failed");
  match Portal.provision portal ~experiment_id:"portal-prov" with
  | Error e -> Alcotest.fail e
  | Ok kit ->
    check Alcotest.int "one endpoint per site" 3 (List.length kit.Portal.sites);
    (* the generated config parses and compiles with our own tools *)
    let parsed = Peering_router.Config.parse_exn kit.Portal.client_config in
    (match Peering_router.Config.bgp parsed with
    | Some bgp ->
      check Alcotest.int "asn 47065" 47065
        (Asn.to_int bgp.Peering_router.Config.asn);
      check Alcotest.int "neighbors = sites" 3
        (List.length bgp.Peering_router.Config.neighbors);
      check Alcotest.int "networks = prefixes" 1
        (List.length bgp.Peering_router.Config.networks)
    | None -> Alcotest.fail "no bgp block in generated config");
    (match Peering_router.Config.compile_route_map parsed "EXPORT" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "generated route-map: %s" e)

(* ------------------------------------------------------------------ *)
(* Remote peering + IPv6 allocation *)

let test_remote_peering () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = [];
      with_phoenix = false
    }
  in
  let t = Testbed.build ~params () in
  let before = List.length (Testbed.peers_at t "amsterdam01") in
  let fabric = Testbed.add_remote_ixp t ~via:"amsterdam01" ~name:"DE-CIX" () in
  let after = List.length (Testbed.peers_at t "amsterdam01") in
  check Alcotest.bool "peers grew" true (after > before);
  check Alcotest.bool "no more than fabric RS users" true
    (after - before
    <= List.length (Peering_ixp.Fabric.route_server_users fabric));
  (* an announcement now also reaches the remote peers directly *)
  let exp =
    match Testbed.new_experiment t ~id:"remote" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-remote" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  check Alcotest.bool "reaches internet" true (Testbed.reach_count t p > 0)

let test_route_server_to_mux_integration () =
  (* Control-plane path the AMS-IX deployment uses: members announce to
     the IXP route server; the server's deliveries feed the PEERING
     mux, which relays per-peer routes to clients. *)
  let e = Engine.create () in
  let safety =
    Safety.create ~peering_asn:(asn 47065) ~owns:(fun _ -> true) ()
  in
  let server =
    Server.create e ~name:"ams" ~asn:(asn 47065) ~safety
      ~export:(fun _ -> ()) ()
  in
  let rs = Peering_ixp.Route_server.create () in
  let members = [ asn 100; asn 200; asn 300 ] in
  List.iter
    (fun m ->
      Peering_ixp.Route_server.connect rs m;
      Server.add_peer server ~kind:Server.Route_server_peer m)
    members;
  Peering_ixp.Route_server.connect rs (asn 47065);
  let exp =
    Experiment.make ~id:"rs-int" ~owner:"o"
      ~description:"route server to mux integration exercise" ()
  in
  exp.Experiment.status <- Experiment.Active;
  let client = Client.create ~id:"rs-client" ~experiment:exp () in
  Client.connect client server;
  (* member 100 announces through the route server *)
  let route =
    Peering_bgp.Route.make
      (pfx "10.100.0.0/16")
      (Peering_bgp.Attrs.make
         ~as_path:(Peering_bgp.As_path.of_asns [ asn 100 ])
         ~next_hop:(Ipv4.of_octets 192 0 2 100)
         ())
  in
  let deliveries =
    Peering_ixp.Route_server.announce rs ~from:(asn 100) route
  in
  (* the server hears the RS delivery addressed to PEERING *)
  List.iter
    (fun (to_member, (r : Peering_bgp.Route.t)) ->
      if Asn.equal to_member (asn 47065) then
        Server.learn_route server ~peer:(asn 100)
          ~path:
            (List.map Fun.id
               (Peering_bgp.As_path.to_asns r.Peering_bgp.Route.attrs.Peering_bgp.Attrs.as_path))
          r.Peering_bgp.Route.prefix)
    deliveries;
  check Alcotest.int "client sees the member route" 1
    (Client.route_count client);
  match Client.best client (pfx "10.100.0.0/16") with
  | Some r ->
    check Alcotest.(option int) "origin preserved" (Some 100)
      (Option.map Asn.to_int (Peering_bgp.Route.origin_asn r))
  | None -> Alcotest.fail "route missing"

let test_monitoring () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = [ ("gatech01", 2) ];
      with_phoenix = false
    }
  in
  let t = Testbed.build ~params () in
  let exp =
    match Testbed.new_experiment t ~id:"monitor" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-mon" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let col = Testbed.collector t in
  Peering_measure.Collector.clear col;
  Testbed.start_monitoring t ~interval:60.0 ~rounds:3 ();
  Engine.run ~until:500.0 (Testbed.engine t);
  check Alcotest.int "three rounds" 3 (Testbed.monitoring_rounds_completed t);
  (* 16 vantages x 3 rounds x 1 prefix *)
  check Alcotest.int "measurements recorded" 48
    (Peering_measure.Collector.n_entries col);
  (* measurement paths end at PEERING *)
  match Peering_measure.Collector.entries col with
  | e :: _ ->
    check Alcotest.int "path reaches PEERING" 47065
      (Asn.to_int (List.nth e.Peering_measure.Collector.path
                     (List.length e.Peering_measure.Collector.path - 1)))
  | [] -> Alcotest.fail "no entries"

let test_sdx_policy_composition () =
  let e = Engine.create () in
  let fwd = Peering_dataplane.Forwarder.create e in
  let open Peering_dataplane in
  (* Three participants around the fabric. *)
  List.iter (Forwarder.add_node fwd) [ "pA"; "pB"; "pC" ];
  let sdx = Sdx.create e fwd ~name:"test-ix" () in
  Sdx.attach_participant sdx ~asn:(asn 100) ~node:"pA";
  Sdx.attach_participant sdx ~asn:(asn 200) ~node:"pB";
  Sdx.attach_participant sdx ~asn:(asn 300) ~node:"pC";
  (* both B and C can reach the content prefix; C announced first *)
  Sdx.announce sdx ~from:(asn 300) (pfx "198.51.100.0/24");
  Sdx.announce sdx ~from:(asn 200) (pfx "198.51.100.0/24");
  (* A prefers B for web traffic *)
  Sdx.set_policy sdx ~asn:(asn 100)
    [ { Sdx.description = "web-via-B";
        matches =
          { Packet_program.match_any with
            Packet_program.dst_in = Some (pfx "198.51.100.0/24");
            dport = Some 80
          };
        action = Sdx.Forward_to (asn 200)
      };
      (* a bogus rule: D never announced anything covering this *)
      { Sdx.description = "impossible";
        matches =
          { Packet_program.match_any with
            Packet_program.dst_in = Some (pfx "203.0.113.0/24")
          };
        action = Sdx.Forward_to (asn 300)
      }
    ];
  (match Sdx.compile sdx with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "reachability check rejected the bogus rule" 1
    (List.length (Sdx.rejected_rules sdx));
  (* traffic from A enters the fabric from A's edge node: port 80 goes
     to B (policy), port 443 to C (BGP) *)
  Forwarder.set_route fwd "pA" (pfx "198.51.100.0/24")
    (Fib.Via (Sdx.fabric_node sdx));
  let inject dport =
    Forwarder.inject fwd ~at:"pA"
      (Packet.make
         ~src:(Ipv4.of_octets 10 0 100 1)
         ~dst:(Ipv4.of_octets 198 51 100 80)
         ~proto:(Packet.Tcp { sport = 9999; dport })
         ())
  in
  inject 80;
  inject 443;
  Engine.run ~until:2.0 e;
  check Alcotest.int "port 80 delivered via B" 1 (Sdx.delivered_to sdx (asn 200));
  check Alcotest.int "port 443 followed BGP to C" 1
    (Sdx.delivered_to sdx (asn 300));
  check Alcotest.int "A got nothing" 0 (Sdx.delivered_to sdx (asn 100))

let test_atlas_probes () =
  let t = Lazy.force testbed in
  let w = Testbed.world t in
  let atlas =
    Peering_measure.Atlas.deploy ~rng:(Peering_sim.Rng.create 9) ~world:w
      ~n:50
  in
  check Alcotest.int "50 probes" 50 (Peering_measure.Atlas.n_probes atlas);
  let distinct =
    List.sort_uniq Asn.compare
      (List.map
         (fun p -> p.Peering_measure.Atlas.host_asn)
         (Peering_measure.Atlas.probes atlas))
  in
  check Alcotest.int "distinct hosts" 50 (List.length distinct);
  (* measure toward an announced PEERING prefix *)
  let exp =
    match Testbed.new_experiment t ~id:"atlas" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-atlas" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let oracle asn = Testbed.path_from t asn p in
  let reach = Peering_measure.Atlas.reachability atlas ~path_of:oracle in
  check Alcotest.bool "most probes reach" true (reach > 0.9);
  let rtts = List.filter_map snd (Peering_measure.Atlas.ping atlas ~path_of:oracle) in
  check Alcotest.bool "rtts positive" true (List.for_all (fun r -> r > 0.0) rtts);
  (* a traceroute ends at PEERING *)
  (match
     Peering_measure.Atlas.traceroute atlas ~path_of:oracle
       (List.hd (Peering_measure.Atlas.probes atlas))
   with
  | Some path ->
    check Alcotest.int "terminates at PEERING" 47065
      (Asn.to_int (List.nth path (List.length path - 1)))
  | None -> Alcotest.fail "probe unreachable");
  Client.withdraw client p;
  check Alcotest.(float 1e-9) "withdrawal visible to probes" 0.0
    (Peering_measure.Atlas.reachability atlas ~path_of:oracle)

let test_rov_containment () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = [];
      with_phoenix = false
    }
  in
  let t = Testbed.build ~params () in
  let exp =
    match Testbed.new_experiment t ~id:"rov-test" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-rov" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client p);
  let attacker = List.nth (Testbed.world t).Gen.small_transit 3 in
  Testbed.inject_external t ~origin:attacker p;
  let hijacked adopters =
    Testbed.set_rov t
      ~roas:
        (Peering_bgp.Rpki.add_roa Peering_bgp.Rpki.empty ~prefix:p
           Testbed.peering_asn)
      ~adopters;
    match Testbed.result_for t p with
    | None -> -1
    | Some r ->
      List.length
        (List.filter
           (fun a ->
             (not (Asn.equal a attacker))
             && Testbed.ingress_site t ~from_asn:a p = None)
           (Peering_topo.Propagation.reachable r))
  in
  let without = hijacked Asn.Set.empty in
  let all = Asn.Set.of_list (Peering_topo.As_graph.ases (Testbed.graph t)) in
  let with_full = hijacked all in
  check Alcotest.bool "hijack succeeds without ROV" true (without > 0);
  check Alcotest.int "universal ROV kills the hijack" 0 with_full;
  Testbed.clear_rov t;
  Testbed.retract_external t ~origin:attacker p

let test_beacon_schedule () =
  let params =
    { Testbed.default_params with
      Testbed.world = small_world;
      university_sites = [];
      with_phoenix = false
    }
  in
  let t = Testbed.build ~params () in
  let exp =
    match Testbed.new_experiment t ~id:"beacon" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client = Client.create ~id:"c-beacon" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let p = List.hd exp.Experiment.prefixes in
  (* A classic well-spaced beacon: never dampened. *)
  let b = Beacon.start t client ~prefix:p ~period:1800.0 ~rounds:3 () in
  Engine.run ~until:(1800.0 *. 8.0) (Testbed.engine t);
  check Alcotest.int "all transitions executed" 6 (Beacon.transitions_executed b);
  check Alcotest.int "never suppressed" 0 (Beacon.suppressed b);
  (* strict alternation announce/withdraw at the period spacing *)
  let rec alternates expect = function
    | [] -> true
    | (_, kind) :: rest -> kind = expect
      && alternates (if expect = `Announce then `Withdraw else `Announce) rest
  in
  check Alcotest.bool "alternation" true (alternates `Announce (Beacon.events b));
  check Alcotest.int "prefix quiescent at the end" 0 (Testbed.reach_count t p);
  (* An abusive fast beacon trips dampening. *)
  let exp2 =
    match Testbed.new_experiment t ~id:"beacon-fast" () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let client2 = Client.create ~id:"c-beacon2" ~experiment:exp2 () in
  Testbed.connect_client t client2 ~sites:[ "amsterdam01" ];
  let p2 = List.hd exp2.Experiment.prefixes in
  let b2 = Beacon.start t client2 ~prefix:p2 ~period:30.0 ~rounds:6 () in
  Engine.run ~until:(1800.0 *. 8.0 +. 500.0) (Testbed.engine t);
  check Alcotest.bool "fast beacon suppressed" true (Beacon.suppressed b2 > 0)

let test_controller_v6 () =
  let e = Engine.create () in
  let ctl = Controller.create e ~supply:[ pfx "184.164.224.0/19" ] () in
  match
    Controller.propose ctl ~id:"v6" ~owner:"o"
      ~description:"dual stack experiment over PEERING v6 space"
      ~n_v6_prefixes:2 ()
  with
  | Error err -> Alcotest.fail err
  | Ok exp ->
    check Alcotest.int "two v6 blocks" 2
      (List.length exp.Experiment.v6_prefixes);
    List.iter
      (fun p ->
        check Alcotest.int "/48" 48 (Prefix6.len p);
        check Alcotest.bool "inside supply" true
          (Prefix6.subsumes (Prefix6.of_string_exn "2804:269c::/32") p))
      exp.Experiment.v6_prefixes;
    check Alcotest.bool "ownership test" true
      (Experiment.owns_v6_prefix exp
         (Prefix6.of_string_exn "2804:269c::/56"));
    let first = List.hd exp.Experiment.v6_prefixes in
    Controller.activate ctl exp;
    Controller.stop ctl exp;
    (* freed block is reused by the next experiment *)
    (match
       Controller.propose ctl ~id:"v6b" ~owner:"o"
         ~description:"a second v6 experiment reusing freed blocks"
         ~n_v6_prefixes:1 ()
     with
    | Ok exp2 ->
      check Alcotest.bool "block reused" true
        (Prefix6.equal first (List.hd exp2.Experiment.v6_prefixes))
    | Error err -> Alcotest.fail err)

(* ------------------------------------------------------------------ *)
(* Safety.release outcomes (ISSUE 9 regression): releases are
   claim-keyed per (client, prefix); double releases and releases of
   unclaimed prefixes must be explicit no-ops, and a foreign claim
   must survive a release attempt by the wrong client. *)

let test_safety_release_outcomes () =
  let s = mk_safety () in
  let exp = active_experiment () in
  let p = pfx "184.164.224.0/24" in
  (* release of a prefix nobody ever claimed *)
  check Alcotest.bool "release of unclaimed is Not_claimed" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Not_claimed);
  (match
     Safety.check_announce s ~now:0.0 ~client:"c1" ~experiment:exp ~prefix:p
       ~path_suffix:[]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "announce blocked: %s" (Safety.reason_to_string e));
  (* the wrong client cannot release someone else's claim ... *)
  (match Safety.release s ~client:"intruder" ~prefix:p with
  | Safety.Claimed_by_other owner ->
    check Alcotest.string "claim names the owner" "c1" owner
  | Safety.Released | Safety.Not_claimed ->
    Alcotest.fail "wrong client's release was not refused");
  (* ... and the registration survives the attempt *)
  check Alcotest.(option string) "registration intact" (Some "c1")
    (Safety.announced_by s p);
  (* the claim holder releases; a second release is a double release *)
  check Alcotest.bool "owner release succeeds" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Released);
  check Alcotest.bool "double release is Not_claimed" true
    (Safety.release s ~client:"c1" ~prefix:p = Safety.Not_claimed);
  check Alcotest.(option string) "registry empty" None (Safety.announced_by s p)

(* ------------------------------------------------------------------ *)
(* Scheduler: fair-share batcher laws (QCheck) *)

(* Random workloads: a quota and a per-tenant demand vector. *)
let gen_batcher_case =
  QCheck.Gen.(
    pair (int_range 1 5) (list_size (int_range 1 6) (int_range 0 25)))

let arb_batcher_case =
  QCheck.make
    ~print:(fun (q, ds) ->
      Printf.sprintf "quota=%d demands=[%s]" q
        (String.concat ";" (List.map string_of_int ds)))
    gen_batcher_case

(* Deficit-round-robin fairness: after r rounds every tenant has been
   granted exactly [min demand (r * quota)] slots, so two tenants that
   both still have queued work never differ by more than one round's
   quota — and FIFO order within a tenant is preserved. *)
let prop_batcher_fair_share =
  QCheck.Test.make ~name:"batcher fair share and FIFO" ~count:200
    arb_batcher_case (fun (quota, demands) ->
      let b = Scheduler.Batcher.create ~quota in
      List.iteri
        (fun i d ->
          for s = 0 to d - 1 do
            Scheduler.Batcher.enqueue b ~tenant:(Printf.sprintf "t%02d" i) (i, s)
          done)
        demands;
      let rounds = Scheduler.Batcher.drain_all b in
      let n = List.length demands in
      let demand = Array.of_list demands in
      let granted = Array.make n 0 in
      let next_seq = Array.make n 0 in
      let ok = ref true in
      List.iteri
        (fun r_idx round ->
          let r = r_idx + 1 in
          List.iter
            (fun (tenant, ops) ->
              let i = int_of_string (String.sub tenant 1 2) in
              if List.length ops > quota then ok := false;
              List.iter
                (fun (ti, seq) ->
                  (* FIFO within the tenant: sequence numbers in order *)
                  if ti <> i || seq <> next_seq.(i) then ok := false;
                  next_seq.(i) <- next_seq.(i) + 1;
                  granted.(i) <- granted.(i) + 1)
                ops)
            round;
          (* exact fair share at every round boundary *)
          for i = 0 to n - 1 do
            if granted.(i) <> min demand.(i) (r * quota) then ok := false
          done;
          (* the satellite's law as stated: tenants with remaining
             demand never deviate by more than one batch *)
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if granted.(i) < demand.(i) && granted.(j) < demand.(j) then
                if abs (granted.(i) - granted.(j)) > quota then ok := false
            done
          done)
        rounds;
      (* everything drains, nothing is invented *)
      for i = 0 to n - 1 do
        if granted.(i) <> demand.(i) then ok := false
      done;
      !ok && Scheduler.Batcher.pending b = 0)

(* FIFO must also survive enqueues interleaved with draining. *)
let test_batcher_interleaved_fifo () =
  let b = Scheduler.Batcher.create ~quota:2 in
  List.iter (fun s -> Scheduler.Batcher.enqueue b ~tenant:"a" s) [ 0; 1; 2 ];
  Scheduler.Batcher.enqueue b ~tenant:"b" 100;
  let r1 = Scheduler.Batcher.drain_round b in
  check
    Alcotest.(list (pair string (list int)))
    "round 1 grants quota per tenant, first-seen order"
    [ ("a", [ 0; 1 ]); ("b", [ 100 ]) ]
    r1;
  List.iter (fun s -> Scheduler.Batcher.enqueue b ~tenant:"a" s) [ 3; 4 ];
  Scheduler.Batcher.enqueue b ~tenant:"b" 101;
  let rest = List.concat (Scheduler.Batcher.drain_all b) in
  check
    Alcotest.(list int)
    "tenant a drains FIFO across interleaved enqueues"
    [ 2; 3; 4 ]
    (List.concat_map (fun (t, ops) -> if t = "a" then ops else []) rest);
  check
    Alcotest.(list int)
    "tenant b drains FIFO" [ 101 ]
    (List.concat_map (fun (t, ops) -> if t = "b" then ops else []) rest)

(* ------------------------------------------------------------------ *)
(* Scheduler: admission control, leases, isolation *)

let sched_proposal = Scheduler.proposal

let admit_ok sched p =
  match Scheduler.admit sched p with
  | Scheduler.Admitted _ -> ()
  | Scheduler.Rejected issues ->
    Alcotest.failf "%s rejected: %s" p.Scheduler.p_tenant
      (String.concat "; "
         (List.map (fun i -> i.Scheduler.issue_message) issues))

let rejected_with sched p code =
  match Scheduler.admit sched p with
  | Scheduler.Admitted _ ->
    Alcotest.failf "%s admitted; expected %s" p.Scheduler.p_tenant code
  | Scheduler.Rejected issues ->
    check Alcotest.bool
      (Printf.sprintf "%s rejected with %s" p.Scheduler.p_tenant code)
      true
      (List.exists (fun i -> i.Scheduler.issue_code = code) issues)

let test_sched_admission () =
  let t = build () in
  let sched =
    Scheduler.create ~vet:Peering_check.Admission.vet ~quota:2
      ~round_interval:0.5 t
  in
  admit_ok sched (sched_proposal "ten-a");
  admit_ok sched (sched_proposal "ten-b");
  check Alcotest.(list string) "both running" [ "ten-a"; "ten-b" ]
    (Scheduler.tenants sched);
  (* duplicate tenant id *)
  rejected_with sched (sched_proposal "ten-a") "SCHED-DUP";
  (* poisoning another live tenant's origin ASN is sabotage *)
  let a_asns =
    match Scheduler.client sched "ten-a" with
    | Some c -> (Client.experiment c).Experiment.private_asns
    | None -> Alcotest.fail "ten-a has no client"
  in
  rejected_with sched
    (sched_proposal ~may_poison:true ~poison_targets:a_asns "ten-c")
    "SCHED-XPOISON";
  (* public poison targets without board approval *)
  rejected_with sched
    (sched_proposal ~poison_targets:[ asn 3356 ] "ten-d")
    "SCHED-POISON";
  (* rejected proposals must leave no allocation behind *)
  let ctl = Testbed.controller t in
  let before = Controller.available_blocks ctl in
  rejected_with sched (sched_proposal "ten-a") "SCHED-DUP";
  check Alcotest.int "no allocation leaked by rejection" before
    (Controller.available_blocks ctl);
  (* announce through the batcher; requests outside the lease refused *)
  let pa = List.hd (Scheduler.leased_prefixes sched "ten-a") in
  (match Scheduler.request_announce sched ~tenant:"ten-a" pa with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Scheduler.request_announce sched ~tenant:"ten-b" pa with
  | Ok () -> Alcotest.fail "announce outside lease accepted"
  | Error _ -> ());
  (match Scheduler.request_announce sched ~tenant:"missing" pa with
  | Ok () -> Alcotest.fail "announce for unknown tenant accepted"
  | Error _ -> ());
  ignore (Scheduler.pump sched);
  check Alcotest.bool "announced prefix reaches the world" true
    (Testbed.reach_count t pa > 0);
  check Alcotest.int "no isolation violations" 0
    (Scheduler.isolation_violations sched);
  (* eviction returns the lease to the pool and withdraws the routes *)
  let before = Controller.available_blocks ctl in
  check Alcotest.bool "evict" true
    (Scheduler.evict sched ~tenant:"ten-a" ~reason:"test revocation");
  check Alcotest.bool "evicted tenant gone" false
    (Scheduler.is_running sched "ten-a");
  check Alcotest.int "lease returned to pool" (before + 1)
    (Controller.available_blocks ctl);
  check Alcotest.int "withdrawn on eviction" 0 (Testbed.reach_count t pa);
  check Alcotest.(option string) "safety claim released" None
    (Safety.announced_by (Testbed.safety t) pa)

let test_sched_lease_expiry () =
  let t = build () in
  let eng = Testbed.engine t in
  let sched = Scheduler.create ~quota:4 ~round_interval:0.5 t in
  admit_ok sched (sched_proposal ~lease_s:20.0 "short-lease");
  admit_ok sched (sched_proposal ~lease_s:20.0 "renewed");
  let p = List.hd (Scheduler.leased_prefixes sched "short-lease") in
  (match Scheduler.request_announce sched ~tenant:"short-lease" p with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Engine.run_for eng 5.0;
  check Alcotest.bool "announced via engine-scheduled round" true
    (Testbed.reach_count t p > 0);
  (* a renewal pushes the second tenant past the first's expiry *)
  (match Scheduler.renew sched ~tenant:"renewed" ~lease_s:60.0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Engine.run_for eng 20.0;  (* past t=20, before t=65 *)
  check Alcotest.bool "expired lease evicts the tenant" false
    (Scheduler.is_running sched "short-lease");
  check Alcotest.bool "renewed tenant survives its old expiry" true
    (Scheduler.is_running sched "renewed");
  check Alcotest.int "expired tenant's routes withdrawn" 0
    (Testbed.reach_count t p);
  Engine.run_for eng 50.0;
  check Alcotest.bool "renewed lease expires too" false
    (Scheduler.is_running sched "renewed")

let test_sched_policy_composition () =
  let t = build () in
  let sched = Scheduler.create t in
  admit_ok sched (sched_proposal ~sites:[ "gatech01" ] "pol-a");
  admit_ok sched (sched_proposal "pol-b");
  let pa = List.hd (Scheduler.leased_prefixes sched "pol-a") in
  let pb = List.hd (Scheduler.leased_prefixes sched "pol-b") in
  (* in-scope policy on a connected site composes fine *)
  (match
     Scheduler.set_policy sched ~tenant:"pol-a"
       [ { Scheduler.pol_dst = pa;
           pol_action = Scheduler.Deliver_via "gatech01"
         }
       ]
   with
  | Ok () -> ()
  | Error issues ->
    Alcotest.failf "in-scope policy rejected: %s"
      (String.concat "; "
         (List.map (fun i -> i.Scheduler.issue_message) issues)));
  check Alcotest.int "policy installed" 1
    (List.length (Scheduler.policy sched "pol-a"));
  let rejected_policy rules code =
    match Scheduler.set_policy sched ~tenant:"pol-a" rules with
    | Ok () -> Alcotest.failf "policy accepted; expected %s" code
    | Error issues ->
      check Alcotest.bool code true
        (List.exists (fun i -> i.Scheduler.issue_code = code) issues)
  in
  (* matching another tenant's lease violates isolation *)
  rejected_policy
    [ { Scheduler.pol_dst = pb; pol_action = Scheduler.Drop_traffic } ]
    "SCHED-POLICY-ISOLATION";
  (* matching outside PEERING space entirely is out of scope *)
  rejected_policy
    [ { Scheduler.pol_dst = pfx "10.10.0.0/24";
        pol_action = Scheduler.Drop_traffic
      }
    ]
    "SCHED-POLICY-SCOPE";
  (* delivering via a site the tenant is not connected to *)
  rejected_policy
    [ { Scheduler.pol_dst = pa;
        pol_action = Scheduler.Deliver_via "amsterdam01"
      }
    ]
    "SCHED-POLICY-SITE";
  (* rejection installs nothing: the old policy survives *)
  check Alcotest.int "rejected policy not installed" 1
    (List.length (Scheduler.policy sched "pol-a"))

(* ------------------------------------------------------------------ *)
(* Coalesced repropagation: Testbed.batch *)

(* The default site mix on the small world: AMS-IX, Phoenix-IX and
   three universities. *)
let five_site =
  lazy
    (Testbed.build
       ~params:
         { small_params with
           Testbed.university_sites =
             [ ("gatech01", 2); ("usc01", 2); ("ufmg01", 2) ]
         }
       ())

let rounds () =
  Peering_obs.Metrics.counter_value "topo.propagation.rounds"

let table_digest t p =
  match Testbed.result_for t p with
  | None -> "none"
  | Some r ->
    Digest.to_hex
      (Digest.string
         (Marshal.to_string (Peering_topo.Propagation.table r) []))

(* A fresh experiment's client, connected to every site. *)
let batch_client t id =
  let exp =
    match Testbed.new_experiment t ~id () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let c = Client.create ~id:("c-" ^ id) ~experiment:exp () in
  Testbed.connect_client t c
    ~sites:(List.map Testbed.site_name (Testbed.sites t));
  (c, List.hd exp.Experiment.prefixes)

let test_batch_nested () =
  let t = Lazy.force five_site in
  let c, p = batch_client t "batch-nested" in
  let r0 = rounds () in
  Testbed.batch t (fun () ->
      Testbed.batch t (fun () -> ignore (Client.announce c p));
      check Alcotest.int "the inner batch defers" r0 (rounds ());
      ignore (Client.announce c ~servers:[ "gatech01" ] p);
      check Alcotest.int "still deferred in the outer batch" r0 (rounds ()));
  check Alcotest.bool "the outer batch propagated" true (rounds () > r0);
  let r1 = rounds () in
  check Alcotest.bool "reachable" true (Testbed.reach_count t p > 0);
  check Alcotest.int "reading after the batch propagates nothing" r1
    (rounds ());
  Client.withdraw c p;
  check Alcotest.int "withdrawn" 0 (Testbed.reach_count t p)

let test_batch_raises () =
  let t = Lazy.force five_site in
  let c, p = batch_client t "batch-raises" in
  let r0 = rounds () in
  (try
     Testbed.batch t (fun () ->
         ignore (Client.announce c p);
         raise Exit)
   with Exit -> ());
  check Alcotest.bool "propagated on the way out" true (rounds () > r0);
  let r1 = rounds () in
  check Alcotest.bool "reachable" true (Testbed.reach_count t p > 0);
  check Alcotest.int "reading propagates nothing" r1 (rounds ());
  Client.withdraw c p

let test_batch_read_inside () =
  let t = Lazy.force five_site in
  let c, p = batch_client t "batch-read" in
  Testbed.batch t (fun () ->
      ignore (Client.announce c p);
      check Alcotest.bool "fresh after the announce" true
        (Testbed.reach_count t p > 0);
      let provider = List.hd (Testbed.peers_at t "gatech01") in
      check Alcotest.bool "its route is fresh too" true
        (Testbed.path_from t provider p <> None);
      Client.withdraw c p;
      check Alcotest.int "fresh after the withdrawal" 0
        (Testbed.reach_count t p));
  check Alcotest.int "withdrawn after the batch" 0 (Testbed.reach_count t p)

(* Failures, ROV and leaks set inside a batch wait for it to close,
   then give the table the same change gives outside one. *)
let test_batch_world_changes () =
  let t = Lazy.force five_site in
  let c, p = batch_client t "batch-world" in
  ignore (Client.announce c p);
  let base = table_digest t p in
  let provider = List.hd (Testbed.peers_at t "gatech01") in
  (* A ROA for another origin makes PEERING's route Invalid at the
     adopters. *)
  let roas =
    Peering_bgp.Rpki.add_roa Peering_bgp.Rpki.empty ~prefix:p (asn 64500)
  in
  let w = Testbed.world t in
  let g = Testbed.graph t in
  (* A transit AS leaking its provider route to another provider. *)
  let leak =
    List.concat_map
      (fun u ->
        List.map (fun v -> (u, v)) (Peering_topo.As_graph.providers g u))
      w.Gen.small_transit
    |> List.find (fun e ->
           Testbed.set_leak_edges t [ e ];
           let d = table_digest t p in
           Testbed.set_leak_edges t [];
           d <> base)
  in
  let changes =
    [ ( "set_down",
        (fun () -> Testbed.set_down t provider true),
        fun () -> Testbed.set_down t provider false );
      ( "set_rov",
        (fun () ->
          Testbed.set_rov t ~roas
            ~adopters:(Asn.Set.of_list w.Gen.large_transit)),
        fun () -> Testbed.clear_rov t );
      ( "set_leak_edges",
        (fun () -> Testbed.set_leak_edges t [ leak ]),
        fun () -> Testbed.set_leak_edges t [] )
    ]
  in
  let apply_all () = List.iter (fun (_, apply, _) -> apply ()) changes in
  let undo_all () = List.iter (fun (_, _, undo) -> undo ()) changes in
  List.iter
    (fun (name, apply, undo) ->
      apply ();
      let expected = table_digest t p in
      undo ();
      check Alcotest.string (name ^ ": undone") base (table_digest t p);
      check Alcotest.bool (name ^ ": changes the table") true
        (expected <> base);
      let r0 = rounds () in
      Testbed.batch t (fun () ->
          apply ();
          check Alcotest.int (name ^ ": deferred") r0 (rounds ()));
      check Alcotest.string (name ^ ": batched") expected (table_digest t p);
      Testbed.batch t undo;
      check Alcotest.string (name ^ ": undone in a batch") base
        (table_digest t p))
    changes;
  apply_all ();
  let expected = table_digest t p in
  undo_all ();
  Testbed.batch t apply_all;
  check Alcotest.string "all three batched" expected (table_digest t p);
  Testbed.batch t undo_all;
  check Alcotest.string "all three undone" base (table_digest t p);
  Client.withdraw c p

(* Five sites announcing one prefix inside a batch cost what the last
   of five one-by-one announcements costs: one propagation of the
   five-origin set. *)
let test_batch_five_sites () =
  let t = Lazy.force five_site in
  let c, p = batch_client t "batch-five" in
  let sites = Client.servers c in
  check Alcotest.int "five sites" 5 (List.length sites);
  let deltas =
    List.map
      (fun s ->
        let r0 = rounds () in
        ignore (Client.announce c ~servers:[ s ] p);
        rounds () - r0)
      sites
  in
  let last = List.nth deltas 4 in
  let one_by_one = table_digest t p in
  let r0 = rounds () in
  Testbed.batch t (fun () -> Client.withdraw c p);
  check Alcotest.int "a batched full withdrawal propagates nothing" r0
    (rounds ());
  check Alcotest.int "withdrawn" 0 (Testbed.reach_count t p);
  Engine.run_for (Testbed.engine t) 7200.0;
  let r0 = rounds () in
  Testbed.batch t (fun () ->
      List.iter
        (fun (_, r) -> check Alcotest.bool "accepted" true (Result.is_ok r))
        (Client.announce c p));
  check Alcotest.int "one propagation's worth of rounds" last (rounds () - r0);
  check Alcotest.bool "one by one cost more" true
    (List.fold_left ( + ) 0 deltas > last);
  check Alcotest.string "same table as one by one" one_by_one
    (table_digest t p);
  Client.withdraw c p

(* The per-peer Adj-RIB-In counts are kept on every change; they must
   equal the tables' cardinalities through seeded learn / replace /
   withdraw / crash / restart sequences. *)
let test_server_route_counts () =
  let e = Engine.create () in
  let safety =
    Safety.create ~peering_asn:(asn 47065) ~owns:(fun _ -> true) ()
  in
  let srv =
    Server.create e ~name:"mux" ~asn:(asn 47065) ~safety
      ~export:(fun _ -> ()) ()
  in
  let peers = [ asn 100; asn 200; asn 300 ] in
  List.iter (fun p -> Server.add_peer srv ~kind:Server.Transit p) peers;
  Server.set_bmp_sink srv (Some ignore);
  let prefixes =
    List.init 30 (fun i -> pfx (Printf.sprintf "10.%d.0.0/16" i))
  in
  let peak = ref 0 in
  let check_counts what =
    let dump = Server.adj_rib_dump srv in
    let total = ref 0 in
    List.iter
      (fun p ->
        let n =
          match List.assoc_opt (Asn.to_int p) dump with
          | Some bindings -> List.length bindings
          | None -> 0
        in
        total := !total + n;
        check Alcotest.int (what ^ ": peer count") n
          (Server.routes_from_peer srv p))
      peers;
    check Alcotest.int (what ^ ": total") !total
      (Server.learned_route_count srv);
    peak := max !peak !total
  in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| 0xc0de; seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      for step = 1 to 400 do
        let peer = pick peers and prefix = pick prefixes in
        (match Random.State.int rng 60 with
        | 0 -> Server.crash srv
        | 1 | 2 | 3 -> Server.restart srv
        | n when n < 40 ->
          Server.learn_route srv ~peer
            ~path:[ peer; asn (1000 + Random.State.int rng 3) ]
            prefix
        | _ -> Server.withdraw_learned srv ~peer prefix);
        check_counts (Printf.sprintf "seed %d step %d" seed step)
      done)
    [ 1; 2; 3; 4; 5 ];
  check Alcotest.bool "tables filled up between crashes" true (!peak > 30)

let () =
  Alcotest.run "core"
    [ ( "controller",
        [ tc "vetting" `Quick test_controller_vetting;
          tc "pool exhaustion" `Quick test_controller_pool_exhaustion;
          tc "scheduling" `Quick test_controller_scheduling;
          tc "donation" `Quick test_controller_donation
        ] );
      ( "safety",
        [ tc "hijack blocked" `Quick test_safety_hijack_blocked;
          tc "isolation" `Quick test_safety_isolation;
          tc "inactive" `Quick test_safety_inactive;
          tc "poisoning permission" `Quick test_safety_poisoning_permission;
          tc "dampening" `Quick test_safety_dampening;
          tc "dampened while registered" `Quick
            test_safety_dampened_while_registered;
          tc "announce after release" `Quick test_safety_announce_after_release;
          tc "release outcomes" `Quick test_safety_release_outcomes
        ] );
      ( "scheduler",
        [ QCheck_alcotest.to_alcotest prop_batcher_fair_share;
          tc "batcher interleaved FIFO" `Quick test_batcher_interleaved_fifo;
          tc "admission" `Quick test_sched_admission;
          tc "lease expiry" `Quick test_sched_lease_expiry;
          tc "policy composition" `Quick test_sched_policy_composition
        ] );
      ("capability", [ tc "table 1 claims" `Quick test_capability_claims ]);
      ( "testbed",
        [ tc "build" `Quick test_testbed_build;
          tc "announce reaches internet" `Quick test_testbed_announce_reaches_internet;
          tc "selective announcement" `Quick test_testbed_selective_announcement;
          tc "hijack contained" `Quick test_testbed_hijack_contained;
          tc "anycast catchment" `Quick test_testbed_anycast_catchment;
          tc "failure avoidance" `Quick test_testbed_failure_avoidance;
          tc "MOAS hijack study" `Quick test_testbed_moas_hijack_study;
          tc "client receives routes" `Quick test_testbed_client_receives_routes;
          tc "session stats" `Quick test_server_session_stats;
          tc "ignore peer" `Quick test_client_ignore_peer;
          tc "server route counts" `Quick test_server_route_counts
        ] );
      ( "batch",
        [ tc "nested batches" `Quick test_batch_nested;
          tc "flush when the batch raises" `Quick test_batch_raises;
          tc "read inside a batch is fresh" `Quick test_batch_read_inside;
          tc "down, rov and leaks in a batch" `Quick test_batch_world_changes;
          tc "five-site announce" `Quick test_batch_five_sites
        ] );
      ( "portal",
        [ tc "accounts" `Quick test_portal_accounts;
          tc "advisory board" `Quick test_portal_board;
          tc "provisioning" `Quick test_portal_provisioning
        ] );
      ( "extensions",
        [ tc "remote peering" `Quick test_remote_peering;
          tc "route server to mux" `Quick test_route_server_to_mux_integration;
          tc "monitoring" `Quick test_monitoring;
          tc "beacon" `Quick test_beacon_schedule;
          tc "sdx policy composition" `Quick test_sdx_policy_composition;
          tc "atlas probes" `Quick test_atlas_probes;
          tc "rov containment" `Quick test_rov_containment;
          tc "ipv6 allocation" `Quick test_controller_v6
        ] )
    ]
