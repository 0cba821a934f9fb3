open Peering_net
open Peering_core
module Engine = Peering_sim.Engine
module Router = Peering_router.Router
module Session = Peering_bgp.Session
module Fsm = Peering_bgp.Fsm
module Forwarder = Peering_dataplane.Forwarder
module Tunnel = Peering_dataplane.Tunnel
module Packet = Peering_dataplane.Packet
module Fib = Peering_dataplane.Fib
module Mininext = Peering_emu.Mininext
module Propagation = Peering_topo.Propagation
module As_graph = Peering_topo.As_graph
module Metrics = Peering_obs.Metrics
module Span = Peering_obs.Span
module Sink = Peering_obs.Sink
module Json = Peering_obs.Json
module Blast = Peering_obs.Blast
module Stats = Peering_measure.Stats

let recovery_hist cls =
  Metrics.histogram
    ~labels:[ ("class", cls) ]
    ~help:"time from fault injection to reconvergence (virtual s)"
    "fault.recovery_s"

(* ------------------------------------------------------------------ *)
(* Blast-radius accounting *)

type reach_dip = {
  dip_prefix : string;
  baseline_reach : int;
  min_reach : int;
  dip_from : float;  (** virtual time reach first dipped below baseline *)
  dip_until : float;  (** virtual time reach last sat below baseline *)
}

type blast = {
  by_target : Blast.entity list;
  by_site : Blast.entity list;
  by_client : Blast.entity list;
  by_prefix : Blast.entity list;
  impacted_sites : string list;
  reach_dips : reach_dip list;
  trace_spans : int;  (** spans in the faults' causal closure *)
}

type outcome = {
  drill : string;
  slo_class : string;
  injected : string list;  (** Plan.describe of everything injected *)
  reconverged : bool;
  recovery_s : float;
  routes_lost : int;
  tenant_reaches : (string * int * int) list;
      (* (tenant, baseline reach, final reach) for drills running
         scheduled experiments; [] elsewhere *)
  blast : blast;
  detail : string;
}

(* ------------------------------------------------------------------ *)
(* SLOs *)

type slo = { slo_class : string; p99_budget_s : float }

(* Budgets per drill class, in virtual seconds. They are deliberately
   tight around observed behaviour (see EXPERIMENTS.md): compound and
   cascade drills are dominated by the longest mux downtime plus wire
   re-establishment; the fate-group drill by the blackhole window; the
   leak storm by the explicit pollution window; the dampening sweep by
   RFC 2439 decay at the largest half-life x suppress combination. The
   single-fault classes follow the same method (see EXPERIMENTS.md). *)
let compound_slos =
  [ { slo_class = "compound"; p99_budget_s = 90.0 };
    { slo_class = "fate_group"; p99_budget_s = 30.0 };
    { slo_class = "cascade"; p99_budget_s = 120.0 };
    { slo_class = "leak_storm"; p99_budget_s = 30.0 };
    { slo_class = "dampening"; p99_budget_s = 4000.0 };
    { slo_class = "multi_tenant"; p99_budget_s = 90.0 }
  ]

let single_fault_slos =
  [ { slo_class = "impair"; p99_budget_s = 150.0 };
    { slo_class = "session_reset"; p99_budget_s = 60.0 };
    { slo_class = "partition"; p99_budget_s = 75.0 };
    { slo_class = "mux_crash"; p99_budget_s = 12.0 };
    { slo_class = "tunnel_blackhole"; p99_budget_s = 30.0 }
  ]

let default_slos = compound_slos @ single_fault_slos

type slo_verdict = {
  verdict_class : string;
  budget_s : float;
  p99_s : float;
  samples : int;
  met : bool;
}

(* ------------------------------------------------------------------ *)
(* Dampening parameter sweep *)

type sweep_row = {
  half_life : float;
  suppress_threshold : float;
  reuse_threshold : float;
  flaps_to_suppression : int;
  suppressed_s : float;  (** time the route spent held down *)
  released : bool;
}

(* ------------------------------------------------------------------ *)
(* Campaign world: the default multi-site testbed plus the injectable
   periphery (wire sessions, tunnels, the HE-style emulation) *)

type wire = {
  wire_site : string;
  wr1 : Router.t;
  wr2 : Router.t;
  wire_session : Session.t;
  wire_full : int;  (** table size when converged *)
}

type ann = {
  ann_client : Client.t;
  ann_sites : string list;  (** sites the announcement goes out of *)
  ann_prefix : Prefix.t;
}

type dip_state = {
  mutable seen_min : int;
  mutable from_t : float option;
  mutable until_t : float;
}

(* Per-prefix reach-dip tracking against the baseline: [sample] reads
   every baseline prefix's reach now, [dips] reports the windows in
   which a reach sat below its baseline. *)
let make_dip_tracker tb eng baseline =
  let states =
    List.map
      (fun (prefix, base) ->
        (prefix, base, { seen_min = base; from_t = None; until_t = 0.0 }))
      baseline
  in
  let sample () =
    List.iter
      (fun (prefix, base, st) ->
        let r = Testbed.reach_count tb prefix in
        if r < st.seen_min then st.seen_min <- r;
        if r < base then begin
          if st.from_t = None then st.from_t <- Some (Engine.now eng);
          st.until_t <- Engine.now eng
        end)
      states
  in
  let dips () =
    List.filter_map
      (fun (prefix, base, st) ->
        match st.from_t with
        | None -> None
        | Some from_t ->
          Some
            { dip_prefix = Prefix.to_string prefix;
              baseline_reach = base;
              min_reach = st.seen_min;
              dip_from = from_t;
              dip_until = st.until_t
            })
      states
  in
  (sample, dips)

type world = {
  tb : Testbed.t;
  eng : Engine.t;
  inj : Injector.t;
  fwd : Forwarder.t;
  emu : Mininext.t;
  wires : wire list;
  tunnels : (string * Tunnel.t) list;  (* site, tunnel *)
  anns : ann list;
  baseline : (Prefix.t * int) list;  (* baseline reach per prefix *)
  sample : unit -> unit;  (* record every baseline prefix's reach now *)
  dips : unit -> reach_dip list;  (* reach dips recorded so far *)
}

let university_sites = [ "gatech01"; "usc01"; "ufmg01" ]

let wait_until engine pred ~timeout =
  let deadline = Engine.now engine +. timeout in
  let rec go () =
    if pred () then Some (Engine.now engine)
    else if Engine.now engine >= deadline then None
    else begin
      Engine.run_for engine 0.25;
      go ()
    end
  in
  go ()

let wire_converged w =
  Session.established w.wire_session
  && Router.table_size w.wr1 = w.wire_full
  && Router.table_size w.wr2 = w.wire_full

let emu_converged emu =
  List.for_all
    (fun (_, _, s) -> Session.established s)
    (Mininext.ibgp_sessions emu)

let client_node = "cl:probe"
let client_addr = Ipv4.of_octets 10 9 9 1
let mux_node site = "mx:" ^ site

(* The address behind each university site's tunnel. *)
let tunnel_addr site =
  match List.find_index (String.equal site) university_sites with
  | Some i -> Ipv4.of_octets 184 164 (224 + i) 1
  | None -> invalid_arg ("Campaign: no tunnel at " ^ site)

let make_world ?(on_world = fun _ -> ()) ~seed () =
  let tb = Testbed.build ~params:{ Testbed.default_params with seed } () in
  on_world tb;
  let eng = Testbed.engine tb in
  let inj = Injector.create eng in
  (* Every mux is a crash target. *)
  List.iter
    (fun s ->
      Injector.add_mux inj
        ~name:("mux:" ^ Testbed.site_name s)
        (Testbed.site_server s))
    (Testbed.sites tb);
  (* One upstream wire session per university site: a live BGP pair
     whose transport the injector can impair or partition. Aggressive
     hold time so partitions are detected inside drill windows. *)
  let wires =
    List.mapi
      (fun i site ->
        let mk asn router_id =
          Router.create eng ~asn:(Asn.of_int asn) ~router_id ~hold_time:9
            ~graceful_restart:120 ()
        in
        let a1 = Ipv4.of_octets 192 168 (40 + i) 1 in
        let a2 = Ipv4.of_octets 192 168 (40 + i) 2 in
        let r1 = mk (65100 + (2 * i)) a1 in
        let r2 = mk (65101 + (2 * i)) a2 in
        let n = 4 in
        for j = 0 to n - 1 do
          Router.originate r1 (Prefix.make (Ipv4.of_octets 10 (60 + i) j 0) 24);
          Router.originate r2 (Prefix.make (Ipv4.of_octets 10 (70 + i) j 0) 24)
        done;
        let session =
          Router.connect eng ~auto_restart:true (r1, a1) (r2, a2)
        in
        Injector.add_link inj ~name:("link:" ^ site) session;
        { wire_site = site; wr1 = r1; wr2 = r2; wire_session = session;
          wire_full = 2 * n
        })
      university_sites
  in
  (* Dataplane: one tunnel from a probe client to each university
     site's mux node — the fate-group drill blackholes them together. *)
  let fwd = Forwarder.create eng in
  Forwarder.add_node fwd client_node;
  Forwarder.add_address fwd client_node client_addr;
  let tunnels =
    List.map
      (fun site ->
        let node = mux_node site in
        Forwarder.add_node fwd node;
        let addr = tunnel_addr site in
        Forwarder.add_address fwd node addr;
        let tun = Tunnel.establish fwd eng ~a:client_node ~b:node () in
        Tunnel.route_via tun ~at:client_node (Prefix.make addr 32);
        Forwarder.set_route fwd node (Prefix.make addr 32) Fib.Local;
        Injector.add_tunnel inj ~name:("tun:" ^ site) tun;
        (site, tun))
      university_sites
  in
  (* The Hurricane-Electric-style emulation: a small MinineXt backbone
     whose iBGP mesh is injectable like any other link. *)
  let emu = Mininext.create eng fwd ~name:"he" ~asn:(Asn.of_int 6939) () in
  List.iter (fun p -> ignore (Mininext.add_pop emu p)) [ "fra"; "ams"; "par" ];
  Mininext.link emu "fra" "ams" ();
  Mininext.link emu "ams" "par" ();
  Mininext.link emu "fra" "par" ();
  Mininext.originate_at emu "fra" (Prefix.of_string_exn "10.80.0.0/24");
  Mininext.start emu;
  List.iter
    (fun (a, b, s) ->
      Injector.add_link inj ~name:(Printf.sprintf "link:emu:%s-%s" a b) s)
    (Mininext.ibgp_sessions emu);
  (* Let wire sessions and the emu mesh establish. *)
  ignore
    (wait_until eng
       (fun () -> List.for_all wire_converged wires && emu_converged emu)
       ~timeout:60.0);
  (* Clients and announcements on the testbed proper. *)
  let get_exn = function
    | Ok e -> e
    | Error m -> invalid_arg ("Campaign: experiment rejected: " ^ m)
  in
  let mk_ann id sites =
    let exp = get_exn (Testbed.new_experiment tb ~id ~n_prefixes:1 ()) in
    let prefix = List.hd exp.Experiment.prefixes in
    let client = Client.create ~id ~experiment:exp () in
    Testbed.connect_client tb client ~sites:university_sites;
    List.iter
      (fun (site, r) ->
        match r with
        | Ok () -> ()
        | Error reason ->
          invalid_arg
            (Printf.sprintf "Campaign: baseline announce refused at %s: %s"
               site
               (Safety.reason_to_string reason)))
      (Client.announce client ~servers:sites prefix);
    { ann_client = client; ann_sites = sites; ann_prefix = prefix }
  in
  let anns =
    [ mk_ann "cl:gatech01" [ "gatech01" ];
      mk_ann "cl:usc01" [ "usc01" ];
      mk_ann "cl:anycast" [ "gatech01"; "usc01"; "ufmg01" ]
    ]
  in
  let baseline =
    List.map
      (fun a -> (a.ann_prefix, Testbed.reach_count tb a.ann_prefix))
      anns
  in
  let sample, dips = make_dip_tracker tb eng baseline in
  { tb; eng; inj; fwd; emu; wires; tunnels; anns; baseline; sample; dips }

(* ------------------------------------------------------------------ *)
(* Recovery predicates *)

let world_recovered w =
  List.for_all (fun s -> Server.is_up (Testbed.site_server s))
    (Testbed.sites w.tb)
  && List.for_all wire_converged w.wires
  && emu_converged w.emu
  && List.for_all (fun (_, tun) -> not (Tunnel.blackholed tun)) w.tunnels
  && List.for_all
       (fun (prefix, reach) -> Testbed.reach_count w.tb prefix = reach)
       w.baseline

(* Baseline-reach shortfall of the testbed prefixes plus any route
   missing from a wire session's tables. *)
let routes_lost w =
  List.fold_left
    (fun acc (prefix, base) ->
      acc + max 0 (base - Testbed.reach_count w.tb prefix))
    0 w.baseline
  + List.fold_left
      (fun acc x ->
        acc
        + max 0 (x.wire_full - Router.table_size x.wr1)
        + max 0 (x.wire_full - Router.table_size x.wr2))
      0 w.wires

(* Map an injector target name to the site it hurts, for targets whose
   spans carry no site attribute of their own. *)
let site_of_target name =
  match String.split_on_char ':' name with
  | [ ("mux" | "link" | "tun"); site ] -> Some site
  | "link" :: "emu" :: _ -> Some "emu"
  | _ -> None

(* Atomic targets a plan touches, fate-group members included — the
   spans only name the group, but the members' sites are impacted. *)
let plan_targets plan =
  let rec go acc = function
    | Plan.Fate_group { faults; _ } -> List.fold_left go acc faults
    | f -> Plan.target f :: acc
  in
  List.fold_left
    (fun acc (s : Plan.step) -> go acc s.fault)
    [] plan
  |> List.rev

let collect_blast ?(plan = []) ~dips () =
  let spans = Sink.flight_spans () in
  let roots = Blast.roots spans ~name:"fault.inject" in
  let closure = Blast.in_traces spans roots in
  let by_target = Blast.rollup closure ~key:"target" in
  let by_site = Blast.rollup closure ~key:"site" in
  let by_client = Blast.rollup closure ~key:"client" in
  let by_prefix = Blast.rollup closure ~key:"prefix" in
  let impacted =
    List.filter_map
      (fun (e : Blast.entity) -> site_of_target e.Blast.value)
      by_target
    @ List.filter_map site_of_target (plan_targets plan)
    @ List.map (fun (e : Blast.entity) -> e.Blast.value) by_site
  in
  { by_target;
    by_site;
    by_client;
    by_prefix;
    impacted_sites = List.sort_uniq String.compare impacted;
    reach_dips = dips;
    trace_spans = List.length closure
  }

(* The one drill harness. Under a fresh flight recorder it builds the
   world, runs [setup] (state the drill needs before any fault), arms
   [plan], runs [body] (which may schedule traffic or drive the engine
   itself), then steps until [fault_horizon] has passed and the world,
   plus the drill's own [recovered] predicate, is back at baseline.
   [watch] runs on every step, for assertions that must hold
   throughout the outage. *)
let drill_harness ~drill ~slo_class ~plan ~fault_horizon ?(extra_timeout = 600.)
    ?(setup = fun _ -> ()) ?(body = fun _ -> ()) ?(watch = fun _ -> ())
    ?(recovered = fun _ -> true) ?on_world ~seed () =
  Span.reset ();
  Sink.start_flight_recorder ();
  let w = make_world ?on_world ~seed () in
  setup w;
  let fault_start = Engine.now w.eng in
  Injector.arm w.inj plan;
  body w;
  let settled =
    wait_until w.eng
      (fun () ->
        w.sample ();
        watch w;
        Engine.now w.eng >= fault_start +. fault_horizon
        && world_recovered w && recovered w)
      ~timeout:(fault_horizon +. extra_timeout)
  in
  Sink.stop_flight_recorder ();
  let recovery_s =
    match settled with Some at -> at -. fault_start | None -> Float.nan
  in
  let reconverged = settled <> None in
  if reconverged then
    Metrics.Histogram.observe (recovery_hist slo_class) recovery_s;
  let injected =
    List.map (fun (s : Plan.step) -> Plan.describe s.fault) plan
  in
  let blast = collect_blast ~plan ~dips:(w.dips ()) () in
  let outcome =
    { drill;
      slo_class;
      injected;
      reconverged;
      recovery_s;
      routes_lost = routes_lost w;
      tenant_reaches = [];
      blast;
      detail = ""
    }
  in
  (w, outcome)

(* ------------------------------------------------------------------ *)
(* Drills *)

(* Compound: a mux restart with a wire partition opening mid-downtime
   and a short emulation partition nested inside that window. *)
let compound_plan =
  Plan.of_steps
    [ { Plan.at = 1.0;
        fault = Plan.Mux_crash { mux = "mux:gatech01"; downtime = 20.0 }
      };
      { Plan.at = 8.0;
        fault = Plan.Partition { link = "link:usc01"; duration = 25.0 }
      };
      { Plan.at = 10.0;
        fault = Plan.Partition { link = "link:emu:fra-ams"; duration = 5.0 }
      }
    ]

let compound_drill ?on_world ~seed () =
  let w, o =
    drill_harness ~drill:"compound" ~slo_class:"compound" ~plan:compound_plan
      ~fault_horizon:34.0 ?on_world ~seed ()
  in
  let gatech_reach =
    match w.baseline with (p, _) :: _ -> Testbed.reach_count w.tb p | [] -> 0
  in
  { o with
    detail =
      Printf.sprintf
        "mux restart overlapped 2 partitions; gatech prefix reaches %d ASes \
         again"
        gatech_reach
  }

(* A 2 Hz probe stream for 30 s from the probe client to each of
   [sites]' mux nodes. [verdict ()] is [(lost, sent, plausible)]:
   probes are lost, but only inside one [duration]-second blackhole
   window per site (at most 2 * duration + 2 probes each).
   [last_delivery ()] is the virtual time the latest probe landed. *)
let probe_stream sites ~duration =
  let sent = ref 0 and delivered = ref 0 and last = ref neg_infinity in
  let body w =
    List.iter
      (fun site ->
        Forwarder.on_deliver w.fwd (mux_node site) (fun _ ->
            incr delivered;
            last := Engine.now w.eng))
      sites;
    for i = 0 to 59 do
      Engine.schedule w.eng
        ~delay:(0.5 *. float_of_int i)
        (fun () ->
          List.iter
            (fun site ->
              incr sent;
              Forwarder.inject w.fwd ~at:client_node
                (Packet.make ~src:client_addr ~dst:(tunnel_addr site) ()))
            sites)
    done
  in
  let verdict () =
    let lost = !sent - !delivered in
    let max_lost = List.length sites * (2 * int_of_float duration + 2) in
    (lost, !sent, !delivered > 0 && lost > 0 && lost <= max_lost)
  in
  (body, verdict, fun () -> !last)

(* Fate group: every site tunnel blackholes at the same instant (one
   conduit cut), watched by a 2 Hz probe stream per tunnel. *)
let fate_group_drill ?on_world ~seed () =
  let duration = 12.0 in
  let plan =
    Plan.of_steps
      [ { Plan.at = 5.0;
          fault =
            Plan.Fate_group
              { group = "conduit";
                faults =
                  List.map
                    (fun site ->
                      Plan.Tunnel_blackhole
                        { tunnel = "tun:" ^ site; duration })
                    university_sites
              }
        }
      ]
  in
  let body, verdict, _ = probe_stream university_sites ~duration in
  let _w, o =
    drill_harness ~drill:"fate_group" ~slo_class:"fate_group" ~plan
      ~fault_horizon:(5.0 +. duration) ~body ?on_world ~seed ()
  in
  let lost, sent, plausible = verdict () in
  { o with
    reconverged = o.reconverged && plausible;
    detail =
      Printf.sprintf "%d/%d probes blackholed across %d tunnels in one group"
        lost sent (List.length university_sites)
  }

(* Cascade: two mux crashes overlap; mid-partition the gatech client
   fails over by re-exporting its prefix at a surviving site, then
   withdraws the failover after recovery so the baseline is restored
   exactly. *)
let cascade_drill ?on_world ~seed () =
  let plan =
    Plan.of_steps
      [ { Plan.at = 1.0;
          fault = Plan.Mux_crash { mux = "mux:gatech01"; downtime = 15.0 }
        };
        { Plan.at = 6.0;
          fault = Plan.Mux_crash { mux = "mux:usc01"; downtime = 15.0 }
        }
      ]
  in
  let refused_down = ref false in
  let failover_ok = ref false in
  let body w =
    let a = List.hd w.anns in
    Engine.schedule w.eng ~delay:8.0 (fun () ->
        (* The crashed mux refuses; the surviving site accepts. *)
        (match
           Client.announce a.ann_client ~servers:[ "gatech01" ] a.ann_prefix
         with
        | [ (_, Error Safety.Mux_down) ] -> refused_down := true
        | _ -> ());
        match
          Client.announce a.ann_client ~servers:[ "ufmg01" ] a.ann_prefix
        with
        | [ (_, Ok ()) ] -> failover_ok := true
        | _ -> ());
    (* Once both muxes are back, retract the failover announcement so
       recovery means "exactly the pre-fault world". *)
    Engine.schedule w.eng ~delay:25.0 (fun () ->
        Client.withdraw a.ann_client ~servers:[ "ufmg01" ] a.ann_prefix)
  in
  let _w, o =
    drill_harness ~drill:"cascade" ~slo_class:"cascade" ~plan
      ~fault_horizon:26.0 ~body ?on_world ~seed ()
  in
  { o with
    reconverged = o.reconverged && !refused_down && !failover_ok;
    detail =
      Printf.sprintf
        "refused at crashed mux: %b; failover export at ufmg01: %b"
        !refused_down !failover_ok
  }

(* Leak storm: mid-run, a handful of edges start leaking (RFC 7908),
   repropagation switches to the general engine, and the pollution set
   is the measured blast radius; clearing the leaks must restore the
   valley-free baseline exactly. *)
let leak_storm_drill ?on_world ~seed () =
  let n_edges = ref 0 and polluted = ref 0 and residual = ref 0 in
  let polluted_now w =
    let g = Testbed.graph w.tb in
    List.fold_left
      (fun acc (prefix, _) ->
        match Testbed.result_for w.tb prefix with
        | Some r -> acc + List.length (Propagation.polluted g r)
        | None -> acc)
      0 w.baseline
  in
  let body w =
    let g = Testbed.graph w.tb in
    (* Deterministic leakers: the first ASes (ascending) with at least
       two providers each leak to their second provider. *)
    let leak_edges =
      let rec pick acc n = function
        | [] -> List.rev acc
        | _ when n = 0 -> List.rev acc
        | asn :: rest -> (
          match As_graph.providers g asn with
          | _ :: second :: _ -> pick ((asn, second) :: acc) (n - 1) rest
          | _ -> pick acc n rest)
      in
      pick [] 3 (As_graph.ases g)
    in
    n_edges := List.length leak_edges;
    (* The storm is not an injector fault (it rewires propagation, not
       a registered target), so the drill roots the span itself,
       exactly like Injector.apply does. *)
    Span.with_span
      ~time:(fun () -> Engine.now w.eng)
      ~attrs:
        [ ("target", "leak-edges");
          ("fault", Printf.sprintf "route-leak storm on %d edges" !n_edges)
        ]
      "fault.inject"
      (fun () ->
        Testbed.set_leak_edges w.tb leak_edges;
        polluted := polluted_now w);
    w.sample ();
    Engine.run_for w.eng 10.0;
    Testbed.set_leak_edges w.tb [];
    residual := polluted_now w
  in
  let _w, o =
    drill_harness ~drill:"leak_storm" ~slo_class:"leak_storm" ~plan:[]
      ~fault_horizon:0.0 ~extra_timeout:60.0 ~body ?on_world ~seed ()
  in
  { o with
    injected = [ Printf.sprintf "route-leak storm on %d edges" !n_edges ];
    reconverged = o.reconverged && !residual = 0;
    detail =
      Printf.sprintf
        "%d polluted AS-routes at storm peak; %d after clearing" !polluted
        !residual
  }

(* Multi-tenant compound: the compound fault plan fired under 20
   concurrent scheduler-admitted experiments, each holding a leased
   /24 announced from every site. Recovery requires the usual world
   predicate AND every tenant's per-prefix reach back at its own
   baseline — the per-tenant zero-routes-lost SLO. *)
let multi_tenant_drill ?on_world ~seed () =
  let n_tenants = 20 in
  let tenant_baseline = ref [] in
  let setup w =
    let sched = Scheduler.create ~quota:4 ~round_interval:0.5 w.tb in
    for i = 0 to n_tenants - 1 do
      let tenant = Printf.sprintf "exp-%02d" i in
      match Scheduler.admit sched (Scheduler.proposal tenant) with
      | Scheduler.Admitted _ -> ()
      | Scheduler.Rejected issues ->
        invalid_arg
          (Printf.sprintf "Campaign: tenant %s rejected: %s" tenant
             (String.concat "; "
                (List.map (fun i -> i.Scheduler.issue_message) issues)))
    done;
    List.iter
      (fun tenant ->
        List.iter
          (fun p ->
            match Scheduler.request_announce sched ~tenant p with
            | Ok () -> ()
            | Error e -> invalid_arg ("Campaign: " ^ e))
          (Scheduler.leased_prefixes sched tenant))
      (Scheduler.tenants sched);
    ignore (Scheduler.pump sched);
    tenant_baseline :=
      List.map
        (fun tenant ->
          let p = List.hd (Scheduler.leased_prefixes sched tenant) in
          (tenant, p, Testbed.reach_count w.tb p))
        (Scheduler.tenants sched)
  in
  let recovered w =
    List.for_all
      (fun (_, p, base) -> Testbed.reach_count w.tb p = base)
      !tenant_baseline
  in
  let w, o =
    drill_harness ~drill:"multi_tenant" ~slo_class:"multi_tenant"
      ~plan:compound_plan ~fault_horizon:34.0 ~setup ~recovered ?on_world
      ~seed ()
  in
  let tenant_reaches =
    List.map
      (fun (tenant, p, base) -> (tenant, base, Testbed.reach_count w.tb p))
      !tenant_baseline
  in
  let tenant_lost =
    List.fold_left
      (fun acc (_, base, final) -> acc + max 0 (base - final))
      0 tenant_reaches
  in
  { o with
    routes_lost = o.routes_lost + tenant_lost;
    tenant_reaches;
    detail =
      Printf.sprintf
        "%d concurrent scheduled experiments; per-tenant reach restored: %b"
        (List.length tenant_reaches) (tenant_lost = 0)
  }

(* ------------------------------------------------------------------ *)
(* Single-fault drills: one fault class each, on gatech01's wire
   session, mux or tunnel *)

let gatech_wire w = List.find (fun x -> x.wire_site = "gatech01") w.wires

let single_step at fault = Plan.of_steps [ { Plan.at; fault } ]

(* Impair the gatech01 wire with [profile] for [duration] seconds. *)
let impair_drill ~drill profile ~duration ?on_world ~seed () =
  let plan =
    single_step 0.5
      (Plan.Impair { link = "link:gatech01"; profile; duration })
  in
  let w, o =
    drill_harness ~drill ~slo_class:"impair" ~plan
      ~fault_horizon:(0.5 +. duration) ?on_world ~seed ()
  in
  { o with
    detail =
      Printf.sprintf "sessions established %d times"
        (Fsm.established_count
           (Session.a (gatech_wire w).wire_session).Session.fsm)
  }

(* Take the gatech01 session down with [fault]. Its routers run RFC
   4724 graceful restart, so neither table may lose a route at any
   step of the outage. *)
let retention_drill ~drill ~slo_class fault ~fault_horizon ?on_world ~seed ()
    =
  let min_table = ref max_int in
  let watch w =
    let x = gatech_wire w in
    min_table :=
      min !min_table
        (min (Router.table_size x.wr1) (Router.table_size x.wr2))
  in
  let w, o =
    drill_harness ~drill ~slo_class ~plan:(single_step 0.0 fault)
      ~fault_horizon ~watch ?on_world ~seed ()
  in
  let full = (gatech_wire w).wire_full in
  let retained = !min_table >= full in
  { o with
    reconverged = o.reconverged && retained;
    detail =
      (if retained then "routes retained throughout the outage (RFC 4724)"
       else
         Printf.sprintf "retention failed: table dipped to %d of %d"
           !min_table full)
  }

(* Crash gatech01's mux: a client announcing there meanwhile is
   refused with Mux_down, and the restart re-exports every client
   announcement the mux held (failover) without client involvement. *)
let mux_crash_drill ?on_world ~seed () =
  let downtime = 5.0 in
  let plan =
    single_step 1.0 (Plan.Mux_crash { mux = "mux:gatech01"; downtime })
  in
  let refused_down = ref false and restart_at = ref 0.0 in
  let body w =
    restart_at := Engine.now w.eng +. 1.0 +. downtime;
    let a = List.hd w.anns in
    Engine.schedule w.eng ~delay:2.0 (fun () ->
        match
          Client.announce a.ann_client ~servers:[ "gatech01" ] a.ann_prefix
        with
        | [ (_, Error Safety.Mux_down) ] -> refused_down := true
        | _ -> ())
  in
  let w, o =
    drill_harness ~drill:"mux_crash" ~slo_class:"mux_crash" ~plan
      ~fault_horizon:(1.0 +. downtime) ~body ?on_world ~seed ()
  in
  let held =
    List.filter_map
      (fun a ->
        if List.mem "gatech01" a.ann_sites then Some (Client.id a.ann_client)
        else None)
      w.anns
  in
  let reexported =
    List.filter_map
      (fun (sp : Span.completed) ->
        if
          sp.Span.name = "core.server.export"
          && sp.Span.started >= !restart_at
          && List.assoc_opt "site" sp.Span.attrs = Some "gatech01"
        then List.assoc_opt "client" sp.Span.attrs
        else None)
      (Sink.flight_spans ())
  in
  let resynced = List.filter (fun c -> List.mem c reexported) held in
  { o with
    reconverged = o.reconverged && !refused_down && resynced = held;
    detail =
      Printf.sprintf
        "refused at crashed mux: %b; %d of %d client announcements \
         re-exported on restart"
        !refused_down (List.length resynced) (List.length held)
  }

(* Blackhole gatech01's tunnel under a 2 Hz probe stream; the drill
   recovers when a probe lands after the blackhole window. *)
let blackhole_drill ?on_world ~seed () =
  let duration = 10.0 in
  let plan =
    single_step 5.0
      (Plan.Tunnel_blackhole { tunnel = "tun:gatech01"; duration })
  in
  let probes, verdict, last_delivery = probe_stream [ "gatech01" ] ~duration in
  let window_end = ref 0.0 in
  let body w =
    window_end := Engine.now w.eng +. 5.0 +. duration;
    probes w
  in
  let _w, o =
    drill_harness ~drill:"blackhole" ~slo_class:"tunnel_blackhole" ~plan
      ~fault_horizon:(5.0 +. duration) ~body
      ~recovered:(fun _ -> last_delivery () > !window_end)
      ?on_world ~seed ()
  in
  let lost, sent, plausible = verdict () in
  { o with
    reconverged = o.reconverged && plausible;
    detail =
      Printf.sprintf "%d/%d probes blackholed, delivery resumed" lost sent
  }

(* Dampening sweep: the same seeded flap workload against a grid of
   RFC 2439 parameters, reading the bgp.dampening.* instruments. *)
let sweep_grid =
  [ (300.0, 2000.0, 750.0);
    (300.0, 3000.0, 1500.0);
    (900.0, 2000.0, 750.0);
    (900.0, 3000.0, 1500.0)
  ]

let sweep_combo ~seed (half_life, suppress_threshold, reuse_threshold) =
  let eng = Engine.create ~seed () in
  let params =
    { Peering_bgp.Dampening.default_params with
      half_life;
      suppress_threshold;
      reuse_threshold
    }
  in
  let safety =
    Safety.create ~dampening:params ~peering_asn:(Asn.of_int 47065)
      ~owns:(Prefix.subsumes (Prefix.of_string_exn "184.164.224.0/19"))
      ()
  in
  let exp =
    Experiment.make ~id:"campaign-sweep" ~owner:"campaign"
      ~description:"dampening parameter sweep flap workload" ()
  in
  let pfx = Prefix.of_string_exn "184.164.230.0/24" in
  exp.Experiment.prefixes <- [ pfx ];
  exp.Experiment.status <- Experiment.Active;
  let announce () =
    Safety.check_announce safety ~now:(Engine.now eng)
      ~client:"campaign-sweep" ~experiment:exp ~prefix:pfx ~path_suffix:[]
  in
  let withdraw () =
    Safety.note_withdraw safety ~now:(Engine.now eng) ~client:"campaign-sweep"
      ~prefix:pfx
  in
  let suppressed_hist =
    Metrics.histogram
      ~help:"time a route spent suppressed before release (virtual s)"
      "bgp.dampening.suppressed_s"
  in
  let samples0 = List.length (Metrics.Histogram.samples suppressed_hist) in
  (match announce () with Ok () -> () | Error _ -> ());
  let flaps = ref 0 in
  let rec flap_until_suppressed () =
    if !flaps >= 10 then None
    else begin
      withdraw ();
      incr flaps;
      Engine.run_for eng 1.0;
      match announce () with
      | Error (Safety.Dampened until) -> Some until
      | Ok () | Error _ -> flap_until_suppressed ()
    end
  in
  match flap_until_suppressed () with
  | None ->
    { half_life;
      suppress_threshold;
      reuse_threshold;
      flaps_to_suppression = !flaps;
      suppressed_s = Float.nan;
      released = false
    }
  | Some until ->
    Engine.run_for eng (until -. Engine.now eng +. 1.0);
    let released = match announce () with Ok () -> true | Error _ -> false in
    let suppressed_s =
      (* The release just recorded lands at the tail of the shared
         histogram; take everything new since this combo started. *)
      match
        List.filteri
          (fun i _ -> i >= samples0)
          (Metrics.Histogram.samples suppressed_hist)
      with
      | [] -> Float.nan
      | samples -> List.fold_left Float.max neg_infinity samples
    in
    { half_life;
      suppress_threshold;
      reuse_threshold;
      flaps_to_suppression = !flaps;
      suppressed_s;
      released
    }

let dampening_drill ~seed =
  let rows = List.map (sweep_combo ~seed) sweep_grid in
  let all_released = List.for_all (fun r -> r.released) rows in
  let worst =
    List.fold_left
      (fun acc r ->
        if Float.is_nan r.suppressed_s then acc else Float.max acc r.suppressed_s)
      0.0 rows
  in
  if all_released then
    Metrics.Histogram.observe (recovery_hist "dampening") worst;
  ( { drill = "dampening";
      slo_class = "dampening";
      injected =
        List.map
          (fun (hl, s, r) ->
            Printf.sprintf
              "flap workload vs dampening hl=%.0fs suppress=%.0f reuse=%.0f"
              hl s r)
          sweep_grid;
      reconverged = all_released;
      recovery_s = (if all_released then worst else Float.nan);
      routes_lost = 0;
      tenant_reaches = [];
      blast =
        { by_target = [];
          by_site = [];
          by_client = [];
          by_prefix = [];
          impacted_sites = [];
          reach_dips = [];
          trace_spans = 0
        };
      detail =
        Printf.sprintf "%d parameter combinations, all released: %b"
          (List.length rows) all_released
    },
    rows )

(* ------------------------------------------------------------------ *)
(* Driver *)

let drills =
  [ "compound"; "fate_group"; "cascade"; "leak_storm"; "dampening";
    "multi_tenant" ]

(* [dampening] stands for the flap class here too; it keeps the seed
   of its position in [drills]. *)
let single_fault_drills =
  [ "loss"; "duplicate"; "corrupt"; "reorder"; "reset"; "partition";
    "mux_crash"; "blackhole"; "dampening" ]

let drill_index name =
  match List.find_index (String.equal name) (drills @ single_fault_drills) with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Campaign: unknown drill %S" name)

type report = {
  seed : int;
  outcomes : outcome list;
  slos : slo_verdict list;
  sweep : sweep_row list;
  zero_routes_lost : bool;
  passed : bool;
}

let run_drill ?on_world ~seed name =
  match name with
  | "compound" -> (compound_drill ?on_world ~seed (), [])
  | "fate_group" -> (fate_group_drill ?on_world ~seed (), [])
  | "cascade" -> (cascade_drill ?on_world ~seed (), [])
  | "leak_storm" -> (leak_storm_drill ?on_world ~seed (), [])
  | "dampening" -> dampening_drill ~seed
  | "multi_tenant" -> (multi_tenant_drill ?on_world ~seed (), [])
  | "loss" ->
    ( impair_drill ~drill:"loss" (Plan.lossy ~loss:0.30 ()) ~duration:30.0
        ?on_world ~seed (),
      [] )
  | "duplicate" ->
    ( impair_drill ~drill:"duplicate"
        (Plan.lossy ~duplicate:0.50 ())
        ~duration:20.0 ?on_world ~seed (),
      [] )
  | "corrupt" ->
    ( impair_drill ~drill:"corrupt" (Plan.lossy ~corrupt:0.05 ())
        ~duration:20.0 ?on_world ~seed (),
      [] )
  | "reorder" ->
    ( impair_drill ~drill:"reorder"
        (Plan.lossy ~reorder:0.50 ~reorder_max_delay:0.4 ())
        ~duration:20.0 ?on_world ~seed (),
      [] )
  | "reset" ->
    ( retention_drill ~drill:"reset" ~slo_class:"session_reset"
        (Plan.Session_reset { link = "link:gatech01" })
        ~fault_horizon:0.5 ?on_world ~seed (),
      [] )
  | "partition" ->
    ( retention_drill ~drill:"partition" ~slo_class:"partition"
        (Plan.Partition { link = "link:gatech01"; duration = 25.0 })
        ~fault_horizon:25.0 ?on_world ~seed (),
      [] )
  | "mux_crash" -> (mux_crash_drill ?on_world ~seed (), [])
  | "blackhole" -> (blackhole_drill ?on_world ~seed (), [])
  | s -> invalid_arg (Printf.sprintf "Campaign: unknown drill %S" s)

let slo_verdicts slos =
  List.filter_map
    (fun { slo_class; p99_budget_s } ->
      let samples =
        Metrics.Histogram.samples
          (recovery_hist slo_class)
      in
      match samples with
      | [] -> None
      | _ ->
        let p99 = Stats.percentile 99.0 samples in
        Some
          { verdict_class = slo_class;
            budget_s = p99_budget_s;
            p99_s = p99;
            samples = List.length samples;
            met = p99 <= p99_budget_s
          })
    slos

let is_compound d = List.mem d drills

let run ?(seed = 42) ?(drills = drills) ?(slos = default_slos) () =
  (* Drill seeds derive from the position in the canonical drill list,
     so a single-drill run replays the very same world as the full
     campaign. *)
  let results =
    List.map
      (fun name -> run_drill ~seed:(seed + (101 * drill_index name)) name)
      drills
  in
  let outcomes = List.map fst results in
  let sweep = List.concat_map snd results in
  (* A report judges the SLO classes of the drill set it draws from,
     sampled or not, so a single-drill rerun reports the same classes
     as its whole set. *)
  let set_slos =
    if List.for_all is_compound drills then compound_slos
    else
      List.filter (fun s -> s.slo_class = "dampening") compound_slos
      @ single_fault_slos
  in
  let judged s = List.exists (fun t -> t.slo_class = s.slo_class) set_slos in
  let slos = slo_verdicts (List.filter judged slos) in
  let zero_routes_lost =
    List.for_all (fun o -> o.routes_lost = 0) outcomes
  in
  let passed =
    zero_routes_lost
    && List.for_all (fun o -> o.reconverged) outcomes
    && List.for_all (fun v -> v.met) slos
  in
  { seed; outcomes; slos; sweep; zero_routes_lost; passed }

(* ------------------------------------------------------------------ *)
(* Reports *)

let entity_json (e : Blast.entity) =
  Json.Obj
    [ ("value", Json.String e.Blast.value);
      ("first", Json.Float e.Blast.first);
      ("last", Json.Float e.Blast.last);
      ("spans", Json.Int e.Blast.spans)
    ]

let dip_json d =
  Json.Obj
    [ ("prefix", Json.String d.dip_prefix);
      ("baseline_reach", Json.Int d.baseline_reach);
      ("min_reach", Json.Int d.min_reach);
      ("from", Json.Float d.dip_from);
      ("until", Json.Float d.dip_until)
    ]

let blast_json b =
  Json.Obj
    [ ("targets", Json.List (List.map entity_json b.by_target));
      ("sites", Json.List (List.map entity_json b.by_site));
      ("clients", Json.List (List.map entity_json b.by_client));
      ("prefixes", Json.List (List.map entity_json b.by_prefix));
      ( "impacted_sites",
        Json.List (List.map (fun s -> Json.String s) b.impacted_sites) );
      ("reach_dips", Json.List (List.map dip_json b.reach_dips));
      ("trace_spans", Json.Int b.trace_spans)
    ]

let outcome_json o =
  Json.Obj
    [ ("drill", Json.String o.drill);
      ("class", Json.String o.slo_class);
      ( "injected",
        Json.List (List.map (fun s -> Json.String s) o.injected) );
      ("reconverged", Json.Bool o.reconverged);
      ("recovery_s", Json.Float o.recovery_s);
      ("routes_lost", Json.Int o.routes_lost);
      ( "tenants",
        Json.List
          (List.map
             (fun (tenant, base, final) ->
               Json.Obj
                 [ ("tenant", Json.String tenant);
                   ("baseline_reach", Json.Int base);
                   ("final_reach", Json.Int final)
                 ])
             o.tenant_reaches) );
      ("blast", blast_json o.blast);
      ("detail", Json.String o.detail)
    ]

let verdict_json v =
  Json.Obj
    [ ("class", Json.String v.verdict_class);
      ("p99_s", Json.Float v.p99_s);
      ("budget_s", Json.Float v.budget_s);
      ("samples", Json.Int v.samples);
      ("met", Json.Bool v.met)
    ]

let sweep_json r =
  Json.Obj
    [ ("half_life_s", Json.Float r.half_life);
      ("suppress_threshold", Json.Float r.suppress_threshold);
      ("reuse_threshold", Json.Float r.reuse_threshold);
      ("flaps_to_suppression", Json.Int r.flaps_to_suppression);
      ("suppressed_s", Json.Float r.suppressed_s);
      ("released", Json.Bool r.released)
    ]

let to_json report =
  Json.Obj
    [ ("schema", Json.String "peering-chaos-campaign/1");
      ("seed", Json.Int report.seed);
      ("drills", Json.List (List.map outcome_json report.outcomes));
      ("slos", Json.List (List.map verdict_json report.slos));
      ("dampening_sweep", Json.List (List.map sweep_json report.sweep));
      ("zero_routes_lost", Json.Bool report.zero_routes_lost);
      ("passed", Json.Bool report.passed);
      ("metrics", Peering_measure.Obs_report.to_json ())
    ]
