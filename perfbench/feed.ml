(* The mux's feed path: BGP UPDATE wire bytes from upstream peers
   through Wire.decode, Server.learn_route / withdraw_learned, the
   relay to one connected Client and the BMP export into a monitoring
   station attached with the standard Server.set_bmp_sink wiring.

   Two workloads share it.  full-feed replays a whole-table transfer
   closed loop; feed-churn loads a base table during set-up and then
   sends steady-state churn open loop at a fixed rate. *)

open Peering_net
open Common
module Wire = Peering_bgp.Wire
module Message = Peering_bgp.Message
module Attrs = Peering_bgp.Attrs
module As_path = Peering_bgp.As_path
module Server = Peering_core.Server
module Client = Peering_core.Client
module Experiment = Peering_core.Experiment
module Safety = Peering_core.Safety
module Monitor = Peering_measure.Monitor

let opts = { Wire.four_octet_asn = true; add_path = false }
let mux_name = "mux01"

(* ------------------------------------------------------------------ *)
(* Inputs: what the mux's peers would send in the repository's
   simulated Internet *)

module Gen = Peering_topo.Gen
module As_graph = Peering_topo.As_graph
module Customer_cone = Peering_topo.Customer_cone

(* The mux has [n_transit] tier-1 providers, which send it their full
   table, and [n_peers - n_transit] IXP peers, which send their
   customer cones. *)
let n_peers = 20
let n_transit = 4

(* The world is Gen's default, the one the testbed is built on, with
   its prefix count set from the table's size.  Every prefix reaches
   the mux from each transit peer, and a few from IXP peers too, so
   [routes / n_transit] prefixes, plus a little for the approximate
   scaling in Gen, give a table of nearly every origin in the world.
   The world is the same for every seed; the seed picks the peers, the
   origins' order and the churn. *)
let world_prefixes ~routes = routes / n_transit * 102 / 100

(** A generated table: one group per (peer, origin), the prefixes the
    peer sends for that origin in one UPDATE. *)
type table = {
  peers : Asn.t array;
  g_peer : int array;
  g_prefixes : Prefix.t list array;  (** sorted *)
  g_path : Asn.t list array;  (** path as sent, peer ASN first *)
}

let n_groups tb = Array.length tb.g_peer
let group_size tb g = List.length tb.g_prefixes.(g)

(* The shortest chain of customer links from [top] to each AS in its
   customer cone, customers visited in ascending ASN order:
   [down o = Some [top; ...; o]]. *)
let customer_paths g top =
  let parent = Hashtbl.create 256 in
  Hashtbl.replace parent top top;
  let q = Queue.create () in
  Queue.add top q;
  while not (Queue.is_empty q) do
    let a = Queue.pop q in
    List.iter
      (fun c ->
        if not (Hashtbl.mem parent c) then begin
          Hashtbl.replace parent c a;
          Queue.add c q
        end)
      (List.sort Asn.compare (As_graph.customers g a))
  done;
  let rec up a acc =
    if Asn.equal a top then top :: acc else up (Hashtbl.find parent a) (a :: acc)
  in
  fun o -> if Hashtbl.mem parent o then Some (up o []) else None

let shorter a b =
  let c = compare (List.length a) (List.length b) in
  if c <> 0 then c < 0 else List.compare Asn.compare a b < 0

(* The route a tier-1 exports to its customer, the mux, under the
   Gao-Rexford preferences Topo.Propagation applies: a customer route
   if it has one, else the best route over its peering links; then the
   shorter, then the lower path.  A tier-1 has no providers. *)
let transit_route g down top =
  let via_peers = List.map down (As_graph.peers_of g top) in
  fun o ->
    match down top o with
    | Some p -> Some p
    | None ->
      List.fold_left
        (fun best d ->
          match d o with
          | None -> best
          | Some p -> (
            let p = top :: p in
            match best with
            | Some b when not (shorter p b) -> best
            | _ -> Some p))
        None via_peers

let sample rng l k =
  let a = Array.of_list l in
  shuffle rng a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(** [table ~seed ~routes] makes exactly [routes] routes from the
    simulated Internet [Gen] builds.  The transit peers are
    seeded picks among its tier-1s.  The IXP peers are one seeded pick
    from each of [n_peers - n_transit] equal strata of its other
    transit ASes ranked by customer-cone size, so they span that
    distribution.  Each origin's prefixes go in one UPDATE per peer
    that has a route to it, with that peer's path.  The origins are
    taken in a seeded order until [routes] is reached.  The stream is
    in full-table-transfer order: each peer's UPDATEs sorted by prefix,
    the peers' streams interleaved round robin as concurrent sessions
    would deliver them. *)
let table ~seed ~routes =
  let rng = Random.State.make [| 0xfeed; seed |] in
  let w =
    Gen.generate
      { Gen.default_params with Gen.target_prefixes = world_prefixes ~routes }
  in
  let g = w.Gen.graph in
  let transit = sample rng w.Gen.tier1 n_transit in
  let ranked =
    Array.of_list
      (List.filter_map
         (fun (a, _) ->
           if List.exists (Asn.equal a) w.Gen.tier1 then None
           else
             match (As_graph.node_exn g a).As_graph.kind with
             | As_graph.Large_transit | As_graph.Small_transit -> Some a
             | _ -> None)
         (Customer_cone.rank_all g))
  in
  let n_ixp = n_peers - n_transit in
  let stratum = Array.length ranked / n_ixp in
  let ixp =
    List.init n_ixp (fun i ->
        ranked.((i * stratum) + Random.State.int rng stratum))
  in
  let memo = Hashtbl.create 64 in
  let down a =
    match Hashtbl.find_opt memo a with
    | Some d -> d
    | None ->
      let d = customer_paths g a in
      Hashtbl.replace memo a d;
      d
  in
  let peers = Array.of_list (transit @ ixp) in
  let route =
    Array.mapi
      (fun i a -> if i < n_transit then transit_route g down a else down a)
      peers
  in
  let origins =
    Array.of_list
      (List.filter (fun a -> As_graph.prefixes_of g a <> []) (As_graph.ases g))
  in
  shuffle rng origins;
  let per_peer = Array.make n_peers [] in
  let count = ref 0 in
  let add origin =
    let mine = As_graph.prefixes_of g origin in
    Array.iteri
      (fun i route ->
        if !count < routes then
          match route origin with
          | None -> ()
          | Some path ->
            let ps = take (routes - !count) mine in
            per_peer.(i) <- (ps, path) :: per_peer.(i);
            count := !count + List.length ps)
      route
  in
  Array.iter add origins;
  if !count < routes then
    failwith
      (Printf.sprintf "table: the world gives %d routes, not %d" !count routes);
  let queues =
    Array.map
      (fun l ->
        ref
          (List.sort
             (fun (a, _) (b, _) -> Prefix.compare (List.hd a) (List.hd b))
             l))
      per_peer
  in
  let n = Array.fold_left (fun acc l -> acc + List.length l) 0 per_peer in
  let g_peer = Array.make n 0 in
  let g_prefixes = Array.make n [] in
  let g_path = Array.make n [] in
  let k = ref 0 in
  while !k < n do
    Array.iteri
      (fun i q ->
        match !q with
        | (ps, path) :: rest ->
          g_peer.(!k) <- i;
          g_prefixes.(!k) <- ps;
          g_path.(!k) <- path;
          incr k;
          q := rest
        | [] -> ())
      queues
  done;
  { peers; g_peer; g_prefixes; g_path }

(** A stream of UPDATE messages, each from one peer session. *)
type stream = {
  buf : Bytes.t;
  off : int array;  (** message [i] starts at [off.(i)] *)
  s_peer : int array;
}

let stream_length s = Array.length s.off

(* One UPDATE per group: [Some path] announces the group's prefixes,
   [None] withdraws them. *)
let encode_stream tb (msgs : (int * Asn.t list option) array) =
  let b = Buffer.create (Array.length msgs * 64) in
  let off =
    Array.map
      (fun (g, path) ->
        let pos = Buffer.length b in
        let ps = List.map (fun p -> (0, p)) tb.g_prefixes.(g) in
        let update =
          match path with
          | Some path ->
            { Message.withdrawn = [];
              attrs =
                Some
                  (Attrs.make ~as_path:(As_path.of_asns path)
                     ~next_hop:(Ipv4.of_int (0x0A000001 + tb.g_peer.(g)))
                     ());
              nlri = ps
            }
          | None -> { Message.withdrawn = ps; attrs = None; nlri = [] }
        in
        Buffer.add_bytes b (Wire.encode opts (Message.Update update));
        pos)
      msgs
  in
  { buf = Buffer.to_bytes b;
    off;
    s_peer = Array.map (fun (g, _) -> tb.g_peer.(g)) msgs
  }

let table_stream tb =
  encode_stream tb (Array.init (n_groups tb) (fun g -> (g, Some tb.g_path.(g))))

(* The churn mix.  No measurement fixes these shares; they are
   placeholders (see README.md).  Withdraws and re-announces have equal
   shares so that the table stays near its loaded size, and replaces
   take the rest. *)
let withdraw_share = 0.225
let reannounce_share = 0.225

(** Steady-state churn over a loaded [tb], one group per UPDATE:
    implicit replaces (a new path for a present group: the peer
    prepends itself once, or stops prepending), withdraws,
    re-announces of withdrawn groups, and every [reset_every] messages
    a session reset of one IXP peer (all its present groups withdrawn,
    then re-learned).  Only present groups are withdrawn and only
    absent ones announced, so no message is refused.  Returns the
    stream and the number of routes present at its end. *)
let churn ~seed ~n ~reset_every tb =
  let rng = Random.State.make [| 0xc4a2; seed |] in
  let ng = n_groups tb in
  let present = Array.make ng true in
  let path = Array.copy tb.g_path in
  let absent = Array.make ng 0 and n_absent = ref 0 in
  let out = Array.make n (0, None) in
  let k = ref 0 in
  let emit g p =
    out.(!k) <- (g, p);
    incr k
  in
  let rec pick_present () =
    let g = Random.State.int rng ng in
    if present.(g) then g else pick_present ()
  in
  let reset_peer () =
    let peer = n_transit + Random.State.int rng (n_peers - n_transit) in
    List.filter
      (fun g -> tb.g_peer.(g) = peer && present.(g))
      (List.init ng Fun.id)
  in
  while !k < n do
    let reset =
      if !k mod reset_every = reset_every / 2 then reset_peer () else []
    in
    if reset <> [] && !k + (2 * List.length reset) <= n then begin
      List.iter (fun g -> emit g None) reset;
      List.iter (fun g -> emit g (Some path.(g))) reset
    end
    else begin
      let u = Random.State.float rng 1.0 in
      if u < withdraw_share then begin
        let g = pick_present () in
        present.(g) <- false;
        absent.(!n_absent) <- g;
        incr n_absent;
        emit g None
      end
      else if u < withdraw_share +. reannounce_share && !n_absent > 0 then begin
        let j = Random.State.int rng !n_absent in
        let g = absent.(j) in
        decr n_absent;
        absent.(j) <- absent.(!n_absent);
        present.(g) <- true;
        emit g (Some path.(g))
      end
      else begin
        let g = pick_present () in
        path.(g) <-
          (if path.(g) == tb.g_path.(g) then
             tb.peers.(tb.g_peer.(g)) :: tb.g_path.(g)
           else tb.g_path.(g));
        emit g (Some path.(g))
      end
    end
  done;
  let routes = ref 0 in
  Array.iteri
    (fun g up -> if up then routes := !routes + group_size tb g)
    present;
  (encode_stream tb out, !routes)

(* ------------------------------------------------------------------ *)
(* The mux under test *)

(** Per-layer time accumulated by a traced replay. *)
type spans = {
  mutable decode_s : float;
  mutable learn_s : float;  (** server calls for announcements *)
  mutable learns : int;
  mutable withdraw_s : float;  (** server calls for withdrawals *)
  mutable withdrawals : int;
  mutable sink_s : float;  (** inside the BMP sink: station ingest *)
}

let new_spans () =
  { decode_s = 0.0;
    learn_s = 0.0;
    learns = 0;
    withdraw_s = 0.0;
    withdrawals = 0;
    sink_s = 0.0
  }

type mux = {
  srv : Server.t;
  peer_asns : Asn.t array;
  client : Client.t option;
  mon : Monitor.t option;
  mutable frames : int;  (** BMP messages the mux emitted *)
  mutable bmp_bytes : int;
  mutable decode_errors : int;
}

(** A mux with [tb]'s peers, optionally one connected client and a
    station on the BMP feed.  With [spans] the sink's time is
    accumulated there. *)
let make_mux ?spans ~client ~station tb =
  let eng = Peering_sim.Engine.create () in
  let peering_asn = Asn.of_int 47065 in
  let safety = Safety.create ~peering_asn ~owns:(fun _ -> true) () in
  let srv =
    Server.create eng ~name:mux_name ~asn:peering_asn ~safety
      ~export:(fun _ -> ())
      ()
  in
  Array.iteri
    (fun i a ->
      Server.add_peer srv
        ~kind:(if i < n_transit then Server.Transit else Server.Ixp_peer)
        a)
    tb.peers;
  let client =
    if not client then None
    else begin
      let exp =
        Experiment.make ~id:"bench" ~owner:"bench"
          ~description:"full-table relay benchmark client" ()
      in
      exp.Experiment.status <- Experiment.Active;
      let c = Client.create ~id:"bench" ~experiment:exp () in
      Client.connect c srv;
      Some c
    end
  in
  let m =
    { srv;
      peer_asns = tb.peers;
      client;
      mon = (if station then Some (Monitor.create ()) else None);
      frames = 0;
      bmp_bytes = 0;
      decode_errors = 0
    }
  in
  (match m.mon with
  | None -> ()
  | Some mon ->
    let attach = Monitor.attach mon ~mux:mux_name in
    let count b =
      m.frames <- m.frames + 1;
      m.bmp_bytes <- m.bmp_bytes + Bytes.length b
    in
    let sink =
      match spans with
      | None ->
        fun b ->
          count b;
          attach b
      | Some sp ->
        fun b ->
          count b;
          let t0 = span_now () in
          attach b;
          sp.sink_s <- sp.sink_s +. (span_now () -. t0)
    in
    Server.set_bmp_sink srv (Some sink));
  m

(* Hand a decoded UPDATE from the peer with index [peer] to the mux. *)
let deliver m peer (u : Message.update) =
  let peer = m.peer_asns.(peer) in
  List.iter (fun (_, p) -> Server.withdraw_learned m.srv ~peer p) u.withdrawn;
  match u.attrs with
  | Some a ->
    let path = As_path.to_asns a.Attrs.as_path in
    List.iter (fun (_, p) -> Server.learn_route m.srv ~peer ~path p) u.nlri
  | None -> ()

let decode_error m =
  m.decode_errors <- m.decode_errors + 1;
  false

(** Decode message [i] of [s] and hand it to the mux.  False when the
    bytes do not decode to an UPDATE. *)
let apply m s i =
  match Wire.decode opts s.buf ~pos:s.off.(i) with
  | Ok (Message.Update u, _) ->
    deliver m s.s_peer.(i) u;
    true
  | Ok _ | Error _ -> decode_error m

(** [apply] with the decode and the server call timed separately. *)
let apply_traced sp m s i =
  let t0 = span_now () in
  match Wire.decode opts s.buf ~pos:s.off.(i) with
  | Ok (Message.Update u, _) ->
    let t1 = span_now () in
    sp.decode_s <- sp.decode_s +. (t1 -. t0);
    deliver m s.s_peer.(i) u;
    let dt = span_now () -. t1 in
    if u.nlri = [] then begin
      sp.withdraw_s <- sp.withdraw_s +. dt;
      sp.withdrawals <- sp.withdrawals + List.length u.withdrawn
    end
    else begin
      sp.learn_s <- sp.learn_s +. dt;
      sp.learns <- sp.learns + List.length u.nlri
    end;
    true
  | Ok _ | Error _ -> decode_error m

(** Closed-loop replay of a whole stream, untimed per message. *)
let load m s =
  for i = 0 to stream_length s - 1 do
    ignore (apply m s i)
  done

(** End-of-run checks: the station's rebuilt table is byte-identical
    to the mux's, it ingested every frame the mux emitted and none
    failed to parse, and the mux and client hold [expect] routes. *)
let verify m ~expect =
  let server_digest = Server.rib_digest m.srv in
  let station =
    match m.mon with
    | None -> []
    | Some mon ->
      [ ("station digest = mux digest",
         Monitor.rib_digest mon ~mux:mux_name = server_digest);
        ("station messages = frames emitted", Monitor.messages mon = m.frames);
        ("station parse errors = 0", Monitor.parse_errors mon = 0)
      ]
  in
  let client =
    match m.client with
    | None -> []
    | Some c -> [ ("client route count", Client.route_count c = expect) ]
  in
  ( [ ("no decode errors", m.decode_errors = 0);
      ("mux route count", Server.learned_route_count m.srv = expect)
    ]
    @ station @ client,
    server_digest )

let failures checks = List.length (List.filter (fun (_, ok) -> not ok) checks)

let full_mux tb = make_mux ~client:true ~station:true tb

(* ------------------------------------------------------------------ *)
(* Traced passes: each replays the same stream on a fresh mux that
   differs only in what is attached, so a layer reachable only through
   the server is the difference of two passes. *)

type pass = {
  sp : spans;
  wall : float;  (** whole replay, including span overhead *)
  words : float;  (** live words of the attached layer after the load *)
  bytes : int;  (** BMP bytes emitted *)
  frames : int;
  pass_checks : (string * bool) list;  (** [verify] after the replay *)
}

(* [measure] picks the structure whose words are counted once the
   stream has been replayed and checked against [routes]; with
   [teardown] every route still present is then withdrawn again
   through the server, so the withdraw path is timed even on a stream
   without withdrawals. *)
let pass ?(traced = true) ~client ~station ~measure ~teardown ~prepare ~routes
    tb s =
  let sp = new_spans () in
  let m =
    if traced then make_mux ~spans:sp ~client ~station tb
    else make_mux ~client ~station tb
  in
  prepare m;
  let t0 = span_now () in
  for i = 0 to stream_length s - 1 do
    ignore (if traced then apply_traced sp m s i else apply m s i)
  done;
  let wall = span_now () -. t0 in
  let words = float_of_int (measure m) in
  let pass_checks, _ = verify m ~expect:routes in
  if teardown then
    List.iter
      (fun (peer, routes) ->
        let peer = Asn.of_int peer in
        List.iter
          (fun (p, _) ->
            let t0 = span_now () in
            Server.withdraw_learned m.srv ~peer p;
            sp.withdraw_s <- sp.withdraw_s +. (span_now () -. t0);
            sp.withdrawals <- sp.withdrawals + 1)
          routes)
      (Server.adj_rib_dump m.srv);
  let r =
    { sp; wall; words; bytes = m.bmp_bytes; frames = m.frames; pass_checks }
  in
  Gc.full_major ();
  r

let ns_per total n = if n = 0 then 0.0 else total *. 1e9 /. float_of_int n

(** The per-layer metrics of the feed path over stream [s] (replayed
    after [prepare] on each fresh mux, leaving [routes] routes), plus
    the GC work and the tracing overhead of a full pipeline replay, and
    every pass's checks. *)
let layer_metrics ~teardown ~prepare ~routes tb s =
  let run = pass ~teardown ~prepare ~routes tb s in
  let server_only =
    run ~client:false ~station:false ~measure:(fun m -> live_words m.srv)
  in
  let with_station =
    run ~client:false ~station:true ~measure:(fun m ->
        match m.mon with Some mon -> live_words mon | None -> 0)
  in
  let with_client =
    run ~client:true ~station:false ~measure:(fun m ->
        match m.client with Some c -> live_words (Client.rib c) | None -> 0)
  in
  let untraced_gc = Gc_delta.start () in
  let untraced =
    pass ~traced:false ~teardown:false ~prepare ~routes ~client:true
      ~station:true ~measure:(fun _ -> 0) tb s
  in
  let gc = Gc_delta.stop untraced_gc in
  let traced =
    pass ~teardown:false ~prepare ~routes ~client:true ~station:true
      ~measure:(fun _ -> 0) tb s
  in
  let b = server_only.sp and c = with_station.sp and d = with_client.sp in
  let n = stream_length s in
  let server_total sp = sp.learn_s +. sp.withdraw_s in
  let per_route w = w /. float_of_int (max 1 routes) in
  let checks =
    List.concat_map
      (fun p -> p.pass_checks)
      [ server_only; with_station; with_client; untraced; traced ]
  in
  ( [ ("wire.decode_ns_per_msg", ns_per b.decode_s n, "ns");
    ("server.learn_ns_per_route", ns_per b.learn_s b.learns, "ns");
    ("server.withdraw_ns_per_route", ns_per b.withdraw_s b.withdrawals, "ns");
    ("server.live_words_per_route", per_route server_only.words, "words");
    ( "bmp.export_ns_per_msg",
      ns_per (server_total c -. c.sink_s -. server_total b) with_station.frames,
      "ns" );
    ( "bmp.bytes_per_route",
      float_of_int with_station.bytes
      /. float_of_int (max 1 (c.learns + c.withdrawals)),
      "B" );
    ("monitor.ingest_ns_per_msg", ns_per c.sink_s with_station.frames, "ns");
    ("monitor.live_words_per_route", per_route with_station.words, "words");
    ( "client_rib.announce_ns_per_route",
      ns_per (d.learn_s -. b.learn_s) d.learns,
      "ns" );
    ( "client_rib.withdraw_ns_per_route",
      ns_per (d.withdraw_s -. b.withdraw_s) d.withdrawals,
      "ns" );
    ("client_rib.live_words_per_route", per_route with_client.words, "words");
    ("trace.overhead_frac", 1.0 -. (untraced.wall /. traced.wall), "frac")
  ]
    @ Gc_delta.metrics gc ~ops:n,
    checks )

(* ------------------------------------------------------------------ *)
(* Workloads *)

let routes_full = 200_000
let min_rounds = 3
let routes_base = 100_000

(* About a tenth of the mux's churn capacity and a sixth of full-feed's
   on the reference host (see README.md): the mux keeps up, and
   queueing shows only when an update stalls.  At twice the rate, the
   spread of op_p50_us over seeds grew from 0.08 to 0.20. *)
let churn_rate = 500.0
let reset_every = 10_000

(** full-feed: a whole-table transfer of [routes_full] routes from
    [n_peers] peers, one UPDATE per op, closed loop.  Each round sets
    up a fresh mux, replays the table and checks the result; rounds
    repeat until [seconds] have been measured. *)
let full_feed ~seed ~seconds ~trace =
  let tb = table ~seed ~routes:routes_full in
  let s = table_stream tb in
  let n = stream_length s in
  if trace then begin
    let (layers, checks), prop =
      propagation_metrics ~ops:n (fun () ->
          layer_metrics ~teardown:true ~prepare:ignore ~routes:routes_full tb s)
    in
    { attempted = n;
      failed = failures checks;
      checks;
      fingerprint = [];
      metrics =
        layers @ prop @ idle_tenant_layers @ [ no_lateness ]
    }
  end
  else begin
    let setup = Samples.create () in
    (* A set-up takes about 0.2 ms, next to seconds for a round, so
       time many extra ones for a steady median. *)
    for _ = 1 to 200 do
      let m, dt = Speed.time (fun () -> full_mux tb) in
      Samples.add setup dt;
      ignore (Sys.opaque_identity m)
    done;
    (* One untimed round first, checked like the others, so the heap
       has grown to a table's size and the first timed round is not
       cold; it ran about 5% slower than the rest. *)
    let warm_checks, warm_digest =
      (fun () ->
        let m = full_mux tb in
        load m s;
        verify m ~expect:routes_full)
        ()
    in
    Gc.full_major ();
    (* Each round's rate is kept and the median reported, so one
       stalled round does not decide the capacity.  The latency
       quantiles are taken over every op of every timed round. *)
    let lat = Samples.create ~capacity:(min_rounds * n) () in
    let rates = Samples.create () in
    let busy = ref 0.0 and rounds = ref 0 in
    let failed = ref (failures warm_checks) in
    let checks = ref warm_checks and digests = ref [ warm_digest ] in
    (* A round returns only its checks, so its mux is garbage before
       the next one is built. *)
    let round () =
      let m, dt = Speed.time (fun () -> full_mux tb) in
      Samples.add setup dt;
      let op_time = ref 0.0 in
      for i = 0 to n - 1 do
        Speed.tick ();
        let t0 = now () in
        if not (apply m s i) then incr failed;
        let dt = now () -. t0 in
        Samples.add lat dt;
        op_time := !op_time +. dt
      done;
      busy := !busy +. !op_time;
      Samples.add rates (float_of_int n /. !op_time);
      verify m ~expect:routes_full
    in
    while !busy < seconds || !rounds < min_rounds do
      let c, digest = round () in
      incr rounds;
      failed := !failed + failures c;
      checks := !checks @ c;
      digests := digest :: !digests;
      Gc.full_major ()
    done;
    let attempted = n * !rounds in
    { attempted;
      failed = !failed;
      checks =
        ("every round rebuilt the same table",
         List.for_all (( = ) (List.hd !digests)) !digests)
        :: !checks;
      fingerprint =
        [ ("ops_per_round", Peering_obs.Json.Int n);
          ("routes", Peering_obs.Json.Int routes_full);
          ("station_digest", Peering_obs.Json.String (List.hd !digests))
        ];
      metrics =
        end_to_end ~paced:false ~setup ~ops_per_s:(Samples.median rates)
          ~p50:(Samples.quantile lat 0.50) ~p99:(Samples.quantile lat 0.99)
          ~attempted
          ~failed:!failed
    }
  end

(** Open loop: message [i] of [s] is due [i / rate] seconds after the
    start whether or not earlier ones are done; the sender spins on the
    CPU clock until then.  Latency runs from the due time.  Messages not
    started within [limit] seconds of the start count as failed. *)
let open_loop m s ~rate ~limit =
  let probe_room = 4.0 *. Speed.reference_s in
  let n = stream_length s in
  let lat = Samples.create ~capacity:n () in
  let late = Samples.create ~capacity:n () in
  let failed = ref 0 and sent = ref 0 in
  let t0 = now () in
  let last = ref t0 in
  (try
     for i = 0 to n - 1 do
       let due = t0 +. (float_of_int i /. rate) in
       let rec spin () =
         let t = now () in
         if t >= due then t
         else begin
           (* Probe only where the slack leaves room for it. *)
           if due -. t > probe_room then Speed.tick ();
           spin ()
         end
       in
       let start = spin () in
       if start -. t0 > limit then raise Exit;
       Samples.add late (start -. due);
       if not (apply m s i) then incr failed;
       let fin = now () in
       Samples.add lat (fin -. due);
       last := fin;
       incr sent
     done
   with Exit -> ());
  (lat, late, !sent, !last -. t0, !failed + (n - !sent))

(** feed-churn: a base table of [routes_base] routes loaded during
    set-up, then [churn_rate] churn messages per second for [seconds],
    open loop. *)
let feed_churn ~seed ~seconds ~trace =
  let tb = table ~seed ~routes:routes_base in
  let base = table_stream tb in
  let n = max 1 (int_of_float (churn_rate *. seconds)) in
  let ch, expect = churn ~seed ~n ~reset_every tb in
  let limit = 5.0 *. seconds in
  if trace then begin
    let (layers, checks), prop =
      propagation_metrics ~ops:n (fun () ->
          layer_metrics ~teardown:false ~prepare:(fun m -> load m base)
            ~routes:expect tb ch)
    in
    let m = full_mux tb in
    load m base;
    let _, late, _, _, failed = open_loop m ch ~rate:churn_rate ~limit in
    { attempted = n;
      failed = failed + failures checks;
      checks;
      fingerprint = [];
      metrics =
        layers @ prop @ idle_tenant_layers
        @ [ ( "loadgen.lateness_p99_us",
              Samples.quantile late 0.99 *. 1e6,
              "us" )
          ]
    }
  end
  else begin
    let setup = Samples.create () in
    (* Each set-up loads the whole base table, and its time varies by a
       third from one to the next within a run; five give a median, the
       last is kept. *)
    let mux = ref None in
    for _ = 1 to 5 do
      mux := None;
      Gc.full_major ();
      let m, dt =
        Speed.time (fun () ->
            let m = full_mux tb in
            load m base;
            m)
      in
      Samples.add setup dt;
      mux := Some m
    done;
    let m = Option.get !mux in
    let base_ok = m.decode_errors = 0 in
    let lat, _, sent, wall, failed = open_loop m ch ~rate:churn_rate ~limit in
    let c, digest = verify m ~expect in
    let failed = failed + failures c in
    { attempted = n;
      failed;
      checks = ("base table decoded", base_ok) :: c;
      fingerprint =
        [ ("ops", Peering_obs.Json.Int n);
          ("base_routes", Peering_obs.Json.Int routes_base);
          ("routes", Peering_obs.Json.Int expect);
          ("station_digest", Peering_obs.Json.String digest)
        ];
      metrics =
        end_to_end ~paced:true ~setup
          ~ops_per_s:(float_of_int sent /. wall)
          ~p50:(Samples.quantile lat 0.50)
          ~p99:(Samples.quantile lat 0.99)
          ~attempted:n ~failed
    }
  end
