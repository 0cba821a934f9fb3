open Peering_net
module Metrics = Peering_obs.Metrics

type announcement = {
  origin : Asn.t;
  prefix : Prefix.t;
  path_suffix : Asn.t list;
  export_to : Asn.Set.t option;
}

let announce ?(path_suffix = []) ?export_to origin prefix =
  { origin; prefix; path_suffix; export_to }

type route = {
  learned_over : Relationship.t option;
  path : Asn.t list;
  ann_index : int;
}

type result = { table : (int, route) Hashtbl.t }

(* Preference class: origin 3 > customer 2 > peer 1 > provider 0. *)
let class_pref = function
  | None -> 3
  | Some rel -> Relationship.import_preference rel

(* Lexicographic AS-path comparison. Only ever reached at equal path
   length, but total on arbitrary paths for the order-law tests. *)
let rec path_lex a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b -> ( match Asn.compare x y with 0 -> path_lex a b | c -> c)

let better (a : route) (b : route) =
  (* true iff [a] strictly preferred over [b]. The path is compared in
     full — not just the next hop — and *before* the announcement
     index: a neighbor's route improving at equal class and length
     always lowers its path lexicographically, so the candidate it
     re-exports strictly beats the one it exported earlier no matter
     how the announcement index moved. That monotonicity is what keeps
     previously imported routes from going stale and makes the
     propagation fixpoint unique (see DESIGN.md). *)
  let ca = class_pref a.learned_over and cb = class_pref b.learned_over in
  if ca <> cb then ca > cb
  else
    let la = List.length a.path and lb = List.length b.path in
    if la <> lb then la < lb
    else
      match path_lex a.path b.path with
      | 0 -> a.ann_index < b.ann_index
      | c -> c < 0

(* Observability: recorded by [propagate] only; [propagate_general]
   is the unmetered hook engine. A round is one work-queue generation:
   the ASes queued when the previous generation finished (phases 1 and
   3), or the phase-1 holders exporting across peer edges (phase 2).
   Every value is a function of the inputs alone. *)
let m_rounds =
  Metrics.counter ~help:"Propagation work-queue generations executed"
    "topo.propagation.rounds"

let m_offers =
  Metrics.counter ~help:"Candidate (asn, route) offers generated by exports"
    "topo.propagation.offers"

let m_adoptions =
  Metrics.counter ~help:"Offers adopted into the propagation route table"
    "topo.propagation.adoptions"

let m_frontier =
  Metrics.histogram ~help:"Work-queue length at the start of each generation"
    "topo.propagation.frontier"

let denied deny asn ann = match deny with Some f -> f asn ann | None -> false

(* Seed the origin routes; shared by both engines so their starting
   tables are identical. *)
let seed_origins ~deny ~down graph (table : (int, route) Hashtbl.t)
    announcements =
  List.iteri
    (fun i (ann : announcement) ->
      if As_graph.mem graph ann.origin && not (Asn.Set.mem ann.origin down)
      then begin
        let r = { learned_over = None; path = ann.path_suffix; ann_index = i } in
        if
          (not (List.exists (Asn.equal ann.origin) r.path))
          && not (denied deny ann.origin ann)
        then
          match Hashtbl.find_opt table (Asn.to_int ann.origin) with
          | Some cur when not (better r cur) -> ()
          | Some _ | None -> Hashtbl.replace table (Asn.to_int ann.origin) r
      end)
    announcements

(* Table holders in ascending ASN order. Seeding work lists from a
   sorted snapshot (rather than [Hashtbl.iter]) is what makes the visit
   order — and hence the engines' traces — independent of hash layout. *)
let sorted_holders (table : (int, route) Hashtbl.t) =
  Hashtbl.fold (fun asn _ acc -> asn :: acc) table []
  |> List.sort Int.compare

(* ------------------------------------------------------------------ *)
(* Valley-free engine: the classic three-phase work-queue fixpoint.
   Queues are seeded from sorted snapshots and drained one generation
   at a time, so the visit order, the table and the metrics depend on
   the inputs alone. *)

let propagate ?deny ?(down = Asn.Set.empty) ?visit graph announcements =
  let table : (int, route) Hashtbl.t = Hashtbl.create 1024 in
  let anns = Array.of_list announcements in
  let get asn = Hashtbl.find_opt table (Asn.to_int asn) in
  let is_down asn = Asn.Set.mem asn down in
  let note u = match visit with Some f -> f u | None -> () in
  (* Offer [r] to [asn]; return true if adopted. *)
  let offer asn (r : route) =
    if is_down asn then false
    else if List.exists (Asn.equal asn) r.path then false (* loop *)
    else begin
      Metrics.Counter.inc m_offers;
      if denied deny asn anns.(r.ann_index) then false
      else
        match get asn with
        | Some cur when not (better r cur) -> false
        | Some _ | None ->
          Hashtbl.replace table (Asn.to_int asn) r;
          Metrics.Counter.inc m_adoptions;
          true
    end
  in
  seed_origins ~deny ~down graph table announcements;
  (* Export the route at [u] to neighbor [v] over [rel_uv] ([v]'s role
     from [u]'s perspective); import class at [v] is the inverse. *)
  let try_export u v rel_uv =
    match get u with
    | None -> false
    | Some r ->
      if is_down u then false
      else if not (Relationship.exports_to ~learned_from:r.learned_over rel_uv)
      then false
      else if
        (* Selective announcement: the origin only exports to its
           chosen neighbor set. *)
        r.learned_over = None
        &&
        match anns.(r.ann_index).export_to with
        | Some allowed -> not (Asn.Set.mem v allowed)
        | None -> false
      then false
      else
        let import_rel = Relationship.invert rel_uv in
        offer v { learned_over = Some import_rel; path = u :: r.path;
                  ann_index = r.ann_index }
  in
  let generation n =
    Metrics.Counter.inc m_rounds;
    Metrics.Histogram.observe m_frontier (float_of_int n)
  in
  let holders () = List.map Asn.of_int (sorted_holders table) in
  (* From the current holders, export over [rel] to [next graph u] to a
     fixpoint, one generation at a time. *)
  let run_phase rel next =
    let queue = Queue.create () in
    List.iter (fun u -> Queue.push u queue) (holders ());
    while not (Queue.is_empty queue) do
      let n = Queue.length queue in
      generation n;
      for _ = 1 to n do
        let u = Queue.pop queue in
        note u;
        List.iter
          (fun v -> if try_export u v rel then Queue.push v queue)
          (next graph u)
      done
    done
  in
  (* Phase 1: customer routes climb provider edges to a fixpoint. *)
  run_phase Relationship.Provider As_graph.providers;
  (* Phase 2: one hop across peer edges. Snapshot holders first so a
     freshly imported peer route is not re-exported to peers. *)
  let exporters = holders () in
  generation (List.length exporters);
  List.iter
    (fun u ->
      List.iter
        (fun v -> ignore (try_export u v Relationship.Peer))
        (As_graph.peers_of graph u))
    exporters;
  (* Phase 3: descend customer edges to a fixpoint. *)
  run_phase Relationship.Customer As_graph.customers;
  { table }

(* ------------------------------------------------------------------ *)
(* General engine: a single work-queue fixpoint with no phase
   structure. The three-phase engine above is only correct for
   valley-free worlds — a route that crosses a Gao–Rexford-violating
   edge after phase 3 would need to climb providers again, which the
   phased schedule never revisits. This engine makes no such
   assumption: every change re-enqueues the changed AS, and an export
   happens whenever Gao–Rexford allows it *or* the [leak] hook marks
   the directed edge as leaking (the exporter ignores export
   discipline; the importer still classifies the route by the real
   relationship). [export_filter] and [import_filter] refine edges
   further (prefix-windowed export policies, Peerlock-style import
   filters).

   A changed AS offers its new route to each neighbor. A neighbor
   that learned its route from that AS treats the offer as an implicit
   withdrawal and re-selects over all its neighbors' current offers:
   the new route may be worse for it, or not offered at all (an AS
   whose peer route improves to a longer customer route offers its
   customers a longer path). Other neighbors adopt the offer only if
   it beats their route. At the fixpoint every AS holds the best of
   its neighbors' current offers, so without hooks the table is the
   unique Gao–Rexford stable state [propagate] computes. Leaks can
   make a world with no stable state; [max_steps] bounds the work.
   Serves as the dynamic oracle for the static leak analysis in
   [Peering_check.Leak_analysis] (test/test_check_diff.ml). *)

let propagate_general ?deny ?(down = Asn.Set.empty) ?leak ?export_filter
    ?import_filter graph announcements =
  let table : (int, route) Hashtbl.t = Hashtbl.create 1024 in
  let anns = Array.of_list announcements in
  let get asn = Hashtbl.find_opt table (Asn.to_int asn) in
  let is_down asn = Asn.Set.mem asn down in
  let leaks u v = match leak with Some f -> f u v | None -> false in
  let export_ok u v ann r =
    match export_filter with Some f -> f u v ann r | None -> true
  in
  let import_ok v ~from r =
    match import_filter with Some f -> f v ~from r | None -> true
  in
  seed_origins ~deny ~down graph table announcements;
  (* Origin routes never change; re-selection starts from them. *)
  let origins = Hashtbl.copy table in
  (* The route [u] currently offers [v] ([v]'s role from [u]'s
     perspective is [rel_uv]), if [v] accepts it. *)
  let offered u v rel_uv =
    match get u with
    | None -> None
    | Some r ->
      let ann = anns.(r.ann_index) in
      let gr_allows =
        Relationship.exports_to ~learned_from:r.learned_over rel_uv
      in
      let blocked_by_selective =
        r.learned_over = None
        &&
        match ann.export_to with
        | Some allowed -> not (Asn.Set.mem v allowed)
        | None -> false
      in
      if
        (gr_allows || leaks u v)
        && (not (is_down u))
        && (not (is_down v))
        && (not blocked_by_selective)
        && (not (List.exists (Asn.equal v) r.path))
        && export_ok u v ann r
      then
        let cand =
          { learned_over = Some (Relationship.invert rel_uv);
            path = u :: r.path;
            ann_index = r.ann_index
          }
        in
        if import_ok v ~from:u cand && not (denied deny v ann) then Some cand
        else None
      else None
  in
  let beats c = function Some b -> better c b | None -> true in
  let reselect v =
    List.fold_left
      (fun best (u, rel_vu) ->
        match offered u v (Relationship.invert rel_vu) with
        | Some c when beats c best -> Some c
        | Some _ | None -> best)
      (Hashtbl.find_opt origins (Asn.to_int v))
      (As_graph.neighbors graph v)
  in
  let learned_from u (r : route) =
    r.learned_over <> None
    && match r.path with h :: _ -> Asn.equal h u | [] -> false
  in
  let queue = Queue.create () in
  let set v r =
    (match r with
    | Some r -> Hashtbl.replace table (Asn.to_int v) r
    | None -> Hashtbl.remove table (Asn.to_int v));
    Queue.push v queue
  in
  List.iter
    (fun asn -> Queue.push (Asn.of_int asn) queue)
    (sorted_holders table);
  let max_steps = 64 * (As_graph.n_ases graph + 1) in
  let steps = ref 0 in
  while not (Queue.is_empty queue) do
    incr steps;
    if !steps > max_steps then
      failwith "Propagation.propagate_general: no stable state";
    let u = Queue.pop queue in
    List.iter
      (fun (v, rel_uv) ->
        match get v with
        | Some cur when learned_from u cur ->
          let next = reselect v in
          if next <> Some cur then set v next
        | cur -> (
          match offered u v rel_uv with
          | Some c when beats c cur -> set v (Some c)
          | Some _ | None -> ()))
      (As_graph.neighbors graph u)
  done;
  { table }

(* ------------------------------------------------------------------ *)

let route_at r asn = Hashtbl.find_opt r.table (Asn.to_int asn)
let path_at r asn = Option.map (fun rt -> rt.path) (route_at r asn)

let full_path r asn =
  Option.map (fun rt -> asn :: rt.path) (route_at r asn)

let table r =
  Hashtbl.fold (fun asn rt acc -> (Asn.of_int asn, rt) :: acc) r.table []
  |> List.sort (fun (a, _) (b, _) -> Asn.compare a b)

let reachable r =
  Hashtbl.fold (fun asn _ acc -> Asn.of_int asn :: acc) r.table []
  |> List.sort Asn.compare

let reachable_count r = Hashtbl.length r.table

let catchment r =
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (rt : route) ->
      let c = Option.value (Hashtbl.find_opt counts rt.ann_index) ~default:0 in
      Hashtbl.replace counts rt.ann_index (c + 1))
    r.table;
  Hashtbl.fold (fun i c acc -> (i, c) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let routes_via r via =
  Hashtbl.fold
    (fun asn (rt : route) acc ->
      if List.exists (Asn.equal via) rt.path && not (Asn.equal (Asn.of_int asn) via)
      then Asn.of_int asn :: acc
      else acc)
    r.table []
  |> List.sort Asn.compare

(* Walking a selected full path from the selecting AS towards the
   origin, the import classes are c_i = relationship g a_i a_{i+1}
   (a_i learned the route from a_{i+1}). The path crossed a
   Gao–Rexford-violating export exactly when some adjacent pair is
   forbidden: a hop whose exporter held a peer- or provider-learned
   route (c_{i+1} ∈ {Peer, Provider}) exported it other than to a
   customer (c_i ≠ Provider). Equivalently the class word read
   self→origin leaves the regular shape Provider* Peer? Customer*.
   Unlabelled adjacent pairs come from poisoned suffixes and end the
   walk. *)
let polluted graph r =
  let path_violates fp =
    let rec walk prev = function
      | a :: (b :: _ as rest) -> (
        match As_graph.relationship graph a b with
        | None -> false
        | Some c ->
          let forbidden =
            match (prev, c) with
            | Some (Relationship.Peer | Relationship.Customer),
              (Relationship.Peer | Relationship.Provider) ->
              true
            | _ -> false
          in
          forbidden || walk (Some c) rest)
      | _ -> false
    in
    walk None fp
  in
  Hashtbl.fold
    (fun asn (rt : route) acc ->
      let self = Asn.of_int asn in
      if path_violates (self :: rt.path) then self :: acc else acc)
    r.table []
  |> List.sort Asn.compare
