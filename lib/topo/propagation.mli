(** Valley-free BGP route propagation over an AS graph.

    Computes, for one prefix announced by one or more origins (anycast
    and hijack scenarios announce from several), the route every AS
    selects under the Gao–Rexford model: prefer customer routes over
    peer routes over provider routes, then shortest AS path, then
    lowest next-hop ASN. Propagation follows the classic three phases —
    customer routes climb provider links, cross one peer link, then
    descend to customers.

    {!propagate} is the valley-free engine: a work-queue fixpoint per
    phase, seeded in ascending ASN order so its visit order, table and
    metrics are functions of the inputs alone. {!propagate_general} is
    the hook engine for worlds that are not valley-free (route leaks,
    export and import filters); without hooks it reaches the same
    table, which makes it the oracle of the differential harness
    ([test/test_propagation_diff.ml], alias [@propagation-diff]).

    This engine is what stands in for "the live Internet" reacting to
    PEERING announcements: route injection, selective announcements,
    AS-path poisoning (LIFEGUARD), prefix hijacks, and anycast
    catchments are all expressed as [announcement]s. *)

open Peering_net

type announcement = {
  origin : Asn.t;  (** the AS injecting the route *)
  prefix : Prefix.t;
  path_suffix : Asn.t list;
      (** fake path appended after the origin; poisoning inserts ASNs
          here so they self-loop-reject the route *)
  export_to : Asn.Set.t option;
      (** when [Some s], the origin announces only to neighbors in
          [s] — PEERING's selective-announcement control. [None] =
          export to all neighbors (subject to Gao–Rexford). *)
}

val announce :
  ?path_suffix:Asn.t list ->
  ?export_to:Asn.Set.t ->
  Asn.t ->
  Prefix.t ->
  announcement

type route = {
  learned_over : Relationship.t option;
      (** relationship class the route was imported over;
          [None] = this AS originates it *)
  path : Asn.t list;
      (** AS path excluding self: next hop first, then onwards to the
          origin, then any poisoned suffix *)
  ann_index : int;  (** which announcement this route derives from *)
}

val class_pref : Relationship.t option -> int
(** Gao–Rexford preference class: origin 3 > customer 2 > peer 1 >
    provider 0. Exposed so tests can check the total-order laws the
    unique fixpoint depends on. *)

val better : route -> route -> bool
(** [better a b] iff [a] is strictly preferred over [b]: higher
    {!class_pref}, then shorter path, then lexicographically lowest
    AS path (which subsumes "lowest next-hop ASN"), then lower
    announcement index. A strict total order on route content — any
    two distinct candidates compare strictly one way. Comparing the
    full path before the announcement index makes a neighbor's
    re-exported candidates monotonically improving, so stale imports
    are always displaced and the fixpoint both engines converge to is
    unique. *)

type result

val propagate :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?down:Asn.Set.t ->
  ?visit:(Asn.t -> unit) ->
  As_graph.t ->
  announcement list ->
  result
(** Run valley-free propagation. [deny asn ann] lets an AS refuse a
    specific announcement on import (modelling filters); ASes in
    [down] neither import nor export anything (modelling failures).
    Announcements must all carry the same prefix or covering/covered
    prefixes; each is propagated independently and ASes pick their
    single best. [visit] is a test hook called on every AS dequeued in
    phases 1 and 3, in order.

    Records [topo.propagation.rounds] (work-queue generations; the
    peer phase counts as one), [.offers] (candidates reaching an up,
    loop-free neighbor), [.adoptions] and the [.frontier] histogram
    (queue length at the start of each generation). *)

val propagate_general :
  ?deny:(Asn.t -> announcement -> bool) ->
  ?down:Asn.Set.t ->
  ?leak:(Asn.t -> Asn.t -> bool) ->
  ?export_filter:(Asn.t -> Asn.t -> announcement -> route -> bool) ->
  ?import_filter:(Asn.t -> from:Asn.t -> route -> bool) ->
  As_graph.t ->
  announcement list ->
  result
(** A single work-queue fixpoint with no phase structure, for worlds
    that are {e not} valley-free. [leak u v] marks the directed edge
    [u -> v] as leaking: [u] exports its route to [v] regardless of
    Gao–Rexford export discipline (RFC 7908 route leaks), while [v]
    still imports it over the real relationship — a leaked route
    arriving at a provider classifies as a customer route and
    re-exports everywhere, which is exactly why leaks spread.
    [export_filter u v ann r] refines exports further (return [false]
    to suppress — prefix-windowed export policies); [import_filter v
    ~from r] lets the importer reject a candidate (Peerlock-style
    filters; [r.path] starts with [from]). An AS whose route was
    learned from a neighbor that changes re-selects over all its
    neighbors' current offers (an implicit withdrawal), so every AS
    ends holding the best route its neighbors offer. On valley-free
    inputs (no [leak]/filters) that is the unique Gao–Rexford stable
    state, and the table equals {!propagate}'s — the claim the
    [@propagation-diff] harness checks with this engine as the oracle.
    Leaks can make a world with no stable state: after
    64 × (ASes + 1) work-queue steps it raises [Failure].
    Deterministic: the work queue is seeded in ascending ASN order and
    neighbors are visited in ascending ASN order. This engine is also
    the dynamic oracle the static leak analysis is differentially
    tested against ([test/test_check_diff.ml], alias [@check-diff]). *)

val route_at : result -> Asn.t -> route option
(** The route the AS selected, [None] if unreachable. *)

val path_at : result -> Asn.t -> Asn.t list option

val full_path : result -> Asn.t -> Asn.t list option
(** [full_path r asn] is [asn :: path], i.e. the forwarding AS-level
    path starting at [asn], for ASes with a route. *)

val table : result -> (Asn.t * route) list
(** The full adopted table, ascending by ASN — the unit of comparison
    for the differential harness and the bench's byte-identity check. *)

val reachable : result -> Asn.t list
(** ASes holding a route, ascending. *)

val reachable_count : result -> int

val catchment : result -> (int * int) list
(** For multi-origin announcements: [(ann_index, count)] pairs giving
    how many ASes selected a route derived from each announcement
    (anycast catchment / hijack impact), ascending by index. ASes with
    no route are not counted. *)

val routes_via : result -> Asn.t -> Asn.t list
(** ASes whose selected path traverses the given AS (inclusive of
    next-hop position, exclusive of themselves). Useful for
    interception experiments. *)

val polluted : As_graph.t -> result -> Asn.t list
(** ASes whose selected route crossed a Gao–Rexford-violating export —
    the class word of the full path read self→origin leaves the legal
    shape Provider* Peer? Customer*. Empty on tables produced by
    {!propagate}; after {!propagate_general} with [leak] edges
    it is the leak's blast radius, the ground truth the static
    analysis' taint set must cover. Ascending. Unlabelled adjacencies
    (poisoned suffixes) end each walk. *)
