(* tenant-churn: the researcher's path.  The default testbed with
   [n_tenants] tenants admitted through the scheduler (checker vetting,
   the paper's donated extra address space), driven closed loop by one
   caller with one outstanding op.  An op is one request plus the
   Scheduler.pump that applies it, so it ends when the change has
   propagated through the simulated Internet. *)

open Peering_net
open Common
module Testbed = Peering_core.Testbed
module Scheduler = Peering_core.Scheduler
module Server = Peering_core.Server
module Engine = Peering_sim.Engine
module Propagation = Peering_topo.Propagation

let n_tenants = 120

let extra_supply =
  List.map Prefix.of_string_exn
    [ "184.164.192.0/19"; "184.164.128.0/18"; "184.164.0.0/17" ]

(* Leases outlive any run; the renew op extends them anyway. *)
let lease_s = 1e9

(* Virtual time between ops.  A tenant is touched once per
   [n_tenants] ops, so the dampening penalty of its last withdrawal
   (one flap per site, 900 s half-life) has decayed long before its
   next announcement. *)
let op_gap_s = 60.0

(* One crash/restart pair per [crash_every] ops, the first at op
   [crash_at]; the sites take turns. *)
let crash_every = 1000
let crash_at = 100

(* ------------------------------------------------------------------ *)
(* Inputs: a plan made from the seed alone *)

type op =
  | Announce of int  (** announce the slot's lease at all its sites *)
  | Reannounce of int  (** same prefix, the other path suffix *)
  | Site_withdraw of int * string
  | Site_announce of int * string
  | Withdraw of int  (** full withdrawal *)
  | Evict_readmit of int  (** revoke the lease, admit a successor *)
  | Renew of int
  | Crash_restart of string  (** the site's mux dies and comes back *)

let op_to_string = function
  | Announce k -> Printf.sprintf "announce %d" k
  | Reannounce k -> Printf.sprintf "reannounce %d" k
  | Site_withdraw (k, s) -> Printf.sprintf "withdraw %d at %s" k s
  | Site_announce (k, s) -> Printf.sprintf "announce %d at %s" k s
  | Withdraw k -> Printf.sprintf "withdraw %d" k
  | Evict_readmit k -> Printf.sprintf "evict and readmit %d" k
  | Renew k -> Printf.sprintf "renew %d" k
  | Crash_restart s -> Printf.sprintf "crash and restart %s" s

type slot_state = Idle | Up | Partial of string

type plan = {
  slot_sites : string list array;  (** [[]] = every site *)
  ops : op array;
}

let site_names =
  [| "amsterdam01"; "phoenix01"; "gatech01"; "usc01"; "ufmg01" |]

(* Draws cycle through a shuffled deck, reshuffled when it runs out, so
   every run gets the same mix in a seeded order. *)
let deck rng cards =
  let a = Array.of_list cards in
  let i = ref (Array.length a) in
  fun () ->
    if !i = Array.length a then begin
      shuffle rng a;
      i := 0
    end;
    incr i;
    a.(!i - 1)

type card = C_reannounce | C_site_withdraw | C_withdraw | C_evict | C_renew

let cards counts =
  List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) counts

(** The op stream for a seed.  Half the tenants use every site and the
    rest are spread evenly over single sites; each tenant is visited
    once per [n_tenants] ops in a fixed seeded order, announcing when
    idle, re-announcing at a site it withdrew from, and otherwise
    drawing its next op from its class's deck.  The seed orders the
    tenants and the decks; the mix is the same for every seed. *)
let plan ~seed ~n_ops =
  let rng = Random.State.make [| 0x7e4a; seed |] in
  let n_sites = Array.length site_names in
  let slot_sites =
    Array.init n_tenants (fun k ->
        if k < n_tenants / 2 then [] else [ site_names.(k mod n_sites) ])
  in
  shuffle rng slot_sites;
  let order = Array.init n_tenants Fun.id in
  shuffle rng order;
  (* The deck weights are placeholders, not measurements (see
     README.md): every kind is drawn often enough to be timed in a
     run, and re-announces, the op an experiment repeats, lead. *)
  let multi =
    deck rng
      (cards
         [ (C_reannounce, 6); (C_site_withdraw, 4); (C_withdraw, 4);
           (C_evict, 3); (C_renew, 3) ])
  in
  let single =
    deck rng
      (cards [ (C_reannounce, 8); (C_withdraw, 6); (C_evict, 3); (C_renew, 3) ])
  in
  let site = deck rng (Array.to_list site_names) in
  let state = Array.make n_tenants Idle in
  let visits = ref 0 in
  let ops =
    Array.init n_ops (fun i ->
        if i mod crash_every = crash_at then
          Crash_restart site_names.(i / crash_every mod n_sites)
        else begin
          let k = order.(!visits mod n_tenants) in
          incr visits;
          match state.(k) with
          | Idle ->
            state.(k) <- Up;
            Announce k
          | Partial s ->
            state.(k) <- Up;
            Site_announce (k, s)
          | Up -> (
            match (if slot_sites.(k) = [] then multi () else single ()) with
            | C_reannounce -> Reannounce k
            | C_site_withdraw ->
              let s = site () in
              state.(k) <- Partial s;
              Site_withdraw (k, s)
            | C_withdraw ->
              state.(k) <- Idle;
              Withdraw k
            | C_evict ->
              state.(k) <- Idle;
              Evict_readmit k
            | C_renew -> Renew k)
        end)
  in
  { slot_sites; ops }

(* ------------------------------------------------------------------ *)
(* The testbed under test *)

type world = {
  tb : Testbed.t;
  sched : Scheduler.t;
  names : string array;  (** current tenant id per slot *)
  generation : int array;
  suffixed : bool array;  (** slot's last announce carried a suffix *)
}

(** Per-layer time accumulated by a traced run. *)
type spans = {
  mutable vet_s : float;
  mutable vets : int;
  admit : Samples.t;  (** seconds per Scheduler.admit *)
  mutable pump_s : float;
  mutable pumps : int;
  crash : Samples.t;  (** seconds per crash/restart pair *)
}

let new_spans () =
  { vet_s = 0.0;
    vets = 0;
    admit = Samples.create ();
    pump_s = 0.0;
    pumps = 0;
    crash = Samples.create ()
  }

(* The default testbed with propagation on one domain.  The result is
   the same for every domain count, but on a small host with CPU steal
   the two-domain engine's barrier waits made two runs of one seed
   differ by up to a fifth. *)
let params = { Testbed.default_params with Testbed.domains = Some 1 }

(* The re-announce op toggles a path suffix of one ASN.  The mux
   strips private ASNs and keeps a public one only for an experiment
   approved to poison, so every tenant is admitted with that approval
   and this target: an RFC 5398 documentation ASN, which no AS of the
   simulated Internet has, so the suffix changes every path and no
   AS's choice. *)
let poison_asn = Asn.of_int 64496

let tenant_name k gen = Printf.sprintf "t%03d-g%d" k gen

let admit ?spans w plan k =
  let p =
    Scheduler.proposal ~sites:plan.slot_sites.(k) ~lease_s ~may_poison:true
      ~poison_targets:[ poison_asn ] w.names.(k)
  in
  match spans with
  | None -> Scheduler.admit w.sched p
  | Some sp ->
    let v, dt = time (fun () -> Scheduler.admit w.sched p) in
    Samples.add sp.admit dt;
    v

let is_admitted = function
  | Scheduler.Admitted _ -> true
  | Scheduler.Rejected _ -> false

(** Testbed.build, the scheduler and every tenant's admission.  False
    in the second component if any admission was refused. *)
let setup ?spans plan =
  let tb = Testbed.build ~params () in
  let vet =
    match spans with
    | None -> Peering_check.Admission.vet
    | Some sp ->
      fun cands ->
        let r, dt = time (fun () -> Peering_check.Admission.vet cands) in
        sp.vet_s <- sp.vet_s +. dt;
        sp.vets <- sp.vets + 1;
        r
  in
  let sched = Scheduler.create ~vet ~quota:4 ~extra_supply tb in
  let w =
    { tb;
      sched;
      names = Array.init n_tenants (fun k -> tenant_name k 0);
      generation = Array.make n_tenants 0;
      suffixed = Array.make n_tenants false
    }
  in
  let ok = ref true in
  for k = 0 to n_tenants - 1 do
    if not (is_admitted (admit ?spans w plan k)) then ok := false
  done;
  (w, !ok)

let lease w k =
  match Scheduler.leased_prefixes w.sched w.names.(k) with
  | p :: _ -> Some p
  | [] -> None

let server w site = Testbed.site_server (Testbed.site_exn w.tb site)

let sites_of plan k =
  match plan.slot_sites.(k) with [] -> Array.to_list site_names | l -> l

(* Whether [site]'s node originates [p] in the latest propagation
   result, that is, the site announces it into the simulated
   Internet. *)
let originates w site p =
  let asn = Testbed.site_asn (Testbed.site_exn w.tb site) in
  match Testbed.route_from w.tb asn p with
  | Some { Propagation.learned_over = None; _ } -> true
  | Some _ | None -> false

let suffix w k = if w.suffixed.(k) then [ poison_asn ] else []

(* Every announcing site's own route carries exactly the suffix of
   the tenant's last announcement. *)
let origin_suffix_ok w plan k p =
  List.for_all
    (fun s ->
      let asn = Testbed.site_asn (Testbed.site_exn w.tb s) in
      match Testbed.route_from w.tb asn p with
      | Some { Propagation.learned_over = None; path; _ } -> path = suffix w k
      | Some _ | None -> true)
    (sites_of plan k)

let routes w p =
  match Testbed.result_for w.tb p with
  | None -> []
  | Some r ->
    List.map (fun (a, (rt : Propagation.route)) -> (a, rt.Propagation.path))
      (Propagation.table r)

(** What an op's check compares against, read before the op. *)
type before =
  | Nothing
  | Lease_until of float option  (** the tenant's lease expiry *)
  | Originated of Prefix.t list  (** the tenant prefixes a site announced *)
  | Paths of (Asn.t * Asn.t list) list  (** every AS's path to the lease *)

let before w op =
  match op with
  | Renew k -> Lease_until (Scheduler.lease_until w.sched w.names.(k))
  | Reannounce k -> Paths (Option.fold (lease w k) ~none:[] ~some:(routes w))
  | Crash_restart site ->
    Originated
      (List.filter_map
         (fun k ->
           Option.bind (lease w k) (fun p ->
               if originates w site p then Some p else None))
         (List.init n_tenants Fun.id))
  | _ -> Nothing

(* After a re-announce every AS that routed to the lease still does,
   and its path gained or lost the prepend at its end. *)
let prepend_toggled w k p before =
  let pre = [ poison_asn ] in
  match before with
  | Paths old ->
    let now = routes w p in
    old <> []
    && List.length now = List.length old
    && List.for_all2
         (fun (a, o) (b, n) ->
           Asn.equal a b && if w.suffixed.(k) then n = o @ pre else o = n @ pre)
         old now
  | _ -> false

let pump ?spans w =
  match spans with
  | None -> ignore (Scheduler.pump w.sched)
  | Some sp ->
    let (_ : int), dt = time (fun () -> Scheduler.pump w.sched) in
    sp.pump_s <- sp.pump_s +. dt;
    sp.pumps <- sp.pumps + 1

(** Apply one op, given what [before] read.  Returns a check to run
    once the op's time has been taken: true when the op's own effect
    is visible in the propagation result. *)
let apply ?spans w plan pre op =
  let req = function Ok () -> true | Error _ -> false in
  let fail () = false in
  (* The tenant announces [p] from exactly its sites but [gone]. *)
  let announced_at k ?gone p =
    List.for_all
      (fun s -> originates w s p = (Some s <> gone))
      (sites_of plan k)
  in
  let announce k ?sites ?(effect = fun _ -> true) () =
    match lease w k with
    | None -> fail
    | Some p ->
      let ok =
        req
          (Scheduler.request_announce w.sched ~tenant:w.names.(k) ?sites
             ~path_suffix:(suffix w k) p)
      in
      pump ?spans w;
      fun () ->
        ok && announced_at k p && origin_suffix_ok w plan k p && effect p
  in
  match op with
  | Announce k -> announce k ()
  | Reannounce k ->
    w.suffixed.(k) <- not w.suffixed.(k);
    announce k ~effect:(fun p -> prepend_toggled w k p pre) ()
  | Site_announce (k, site) -> announce k ~sites:[ site ] ()
  | Site_withdraw (k, site) -> (
    match lease w k with
    | None -> fail
    | Some p ->
      let ok =
        req
          (Scheduler.request_withdraw w.sched ~tenant:w.names.(k)
             ~sites:[ site ] p)
      in
      pump ?spans w;
      fun () ->
        ok && announced_at k ~gone:site p && Testbed.reach_count w.tb p > 0)
  | Withdraw k -> (
    match lease w k with
    | None -> fail
    | Some p ->
      let ok = req (Scheduler.request_withdraw w.sched ~tenant:w.names.(k) p) in
      pump ?spans w;
      fun () -> ok && Testbed.reach_count w.tb p = 0)
  | Evict_readmit k ->
    let old = lease w k in
    let evicted =
      Scheduler.evict w.sched ~tenant:w.names.(k) ~reason:"churn"
    in
    w.generation.(k) <- w.generation.(k) + 1;
    w.names.(k) <- tenant_name k w.generation.(k);
    w.suffixed.(k) <- false;
    let admitted = is_admitted (admit ?spans w plan k) in
    fun () ->
      evicted && admitted
      && Scheduler.is_running w.sched w.names.(k)
      && lease w k <> None
      && Option.fold old ~none:false ~some:(fun p ->
             Testbed.reach_count w.tb p = 0)
  | Renew k -> (
    let r = Scheduler.renew w.sched ~tenant:w.names.(k) ~lease_s in
    fun () ->
      match (r, pre) with
      | Ok e, Lease_until (Some e0) ->
        e > e0 && Scheduler.lease_until w.sched w.names.(k) = Some e
      | _ -> false)
  | Crash_restart site ->
    let srv = server w site in
    let ps = match pre with Originated ps -> ps | _ -> [] in
    (* While the mux is down its site must originate none of them. *)
    let (gone : bool), dt =
      time (fun () ->
          Server.crash srv;
          let gone = not (List.exists (originates w site) ps) in
          Server.restart srv;
          gone)
    in
    Option.iter (fun sp -> Samples.add sp.crash dt) spans;
    fun () ->
      gone && Server.is_up srv && ps <> []
      && List.for_all (originates w site) ps

(* Every op that was applied must leave the scheduler's per-site apply
   failure counter untouched. *)
let op_failures () = counter "core.sched.op_failures"

type run = {
  lat : Samples.t;
  ops : int;
  busy : float;
  failed : int;
  fingerprint : (string * Peering_obs.Json.t) list;
}

let fingerprint w ~ops ~adoptions =
  let open Peering_obs.Json in
  let active =
    List.length
      (List.filter
         (fun t ->
           match Scheduler.leased_prefixes w.sched t with
           | p :: _ -> Testbed.reach_count w.tb p > 0
           | [] -> false)
         (Scheduler.tenants w.sched))
  in
  [ ("ops", Int ops);
    ("announced_tenants", Int active);
    ("sched_log_digest", String (digest_lines (Scheduler.log w.sched)));
    ("propagation_adoptions", Int adoptions)
  ]

(** Closed loop over the first [n] ops of [plan]. *)
let drive ?spans w (plan : plan) ~n =
  let lat = Samples.create ~capacity:4096 () in
  let busy = ref 0.0 and failed = ref 0 and i = ref 0 in
  let adoptions0 = counter "topo.propagation.adoptions" in
  let eng = Testbed.engine w.tb in
  while !i < n do
    Speed.tick ();
    let f0 = op_failures () in
    let pre = before w plan.ops.(!i) in
    let t0 = now () in
    let check = apply ?spans w plan pre plan.ops.(!i) in
    let dt = now () -. t0 in
    Samples.add lat dt;
    busy := !busy +. dt;
    if not (check () && op_failures () = f0) then begin
      incr failed;
      Printf.printf "op %d failed: %s\n" !i (op_to_string plan.ops.(!i))
    end;
    incr i;
    Engine.run_for eng op_gap_s
  done;
  { lat;
    ops = n;
    busy = !busy;
    failed = !failed;
    fingerprint =
      fingerprint w ~ops:n
        ~adoptions:(counter "topo.propagation.adoptions" - adoptions0)
  }

(* Ops per second of --seconds: about the closed-loop capacity of the
   reference host, so a run takes about --seconds there.  The op count
   is fixed, not the time, so every version of the program does the
   same work and ends with the same fingerprint. *)
let nominal_ops_per_s = 80.0

let isolation_check w =
  ("isolation violations = 0", Scheduler.isolation_violations w.sched = 0)

let setup_exn ?spans plan =
  let w, ok = setup ?spans plan in
  if not ok then failwith "tenant-churn: an admission was refused";
  w

let tenant_churn ~seed ~seconds ~trace =
  let n = max 1 (int_of_float (nominal_ops_per_s *. seconds)) in
  let plan = plan ~seed ~n_ops:n in
  if trace then begin
    (* An untraced and a traced pass over the same ops give the
       tracing overhead; the layers are read from the traced one. *)
    let untraced = drive (setup_exn plan) plan ~n in
    Gc.full_major ();
    let sp = new_spans () in
    let w = setup_exn ~spans:sp plan in
    let gc0 = Gc_delta.start () in
    let r, prop =
      propagation_metrics ~ops:n (fun () -> drive ~spans:sp w plan ~n)
    in
    let gc = Gc_delta.stop gc0 in
    let per n x = if n = 0 then 0.0 else x /. float_of_int n in
    let median_or_zero s =
      if Samples.count s = 0 then 0.0 else Samples.median s
    in
    { attempted = r.ops;
      failed = r.failed;
      checks =
        [ ("untraced pass had no failed op", untraced.failed = 0);
          isolation_check w
        ];
      fingerprint = r.fingerprint;
      metrics =
        [ ("sched.pump_us_per_op", per sp.pumps sp.pump_s *. 1e6, "us");
          ("sched.admit_us", median_or_zero sp.admit *. 1e6, "us");
          ("check.vet_us_per_admit", per sp.vets sp.vet_s *. 1e6, "us");
          ("testbed.crash_restart_ms", median_or_zero sp.crash *. 1e3, "ms");
          ("trace.overhead_frac", 1.0 -. (untraced.busy /. r.busy), "frac")
        ]
        @ prop @ Gc_delta.metrics gc ~ops:r.ops @ idle_feed_layers
    }
  end
  else begin
    let setup_s = Samples.create () in
    (* Set up several times for a steady median; keep the last. *)
    let w = ref None in
    for _ = 1 to 15 do
      w := None;
      Gc.full_major ();
      let w', dt = Speed.time (fun () -> setup_exn plan) in
      Samples.add setup_s dt;
      w := Some w'
    done;
    let w = Option.get !w in
    let r = drive w plan ~n in
    { attempted = r.ops;
      failed = r.failed;
      checks = [ isolation_check w ];
      fingerprint = r.fingerprint;
      metrics =
        end_to_end ~paced:false ~setup:setup_s
          ~ops_per_s:(float_of_int r.ops /. r.busy)
          ~p50:(Samples.quantile r.lat 0.50)
          ~p99:(Samples.quantile r.lat 0.99)
          ~attempted:r.ops ~failed:r.failed
    }
  end


