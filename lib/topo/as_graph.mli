(** The AS-level Internet graph: ASes with metadata and
    relationship-labelled edges, plus prefix origination. *)

open Peering_net

type kind =
  | Tier1
  | Large_transit
  | Small_transit
  | Stub
  | Content  (** CDN / cloud / content provider *)
  | Enterprise

val kind_to_string : kind -> string

type node = {
  asn : Asn.t;
  name : string;
  country : Country.t;
  kind : kind;
}

type t
(** A mutable graph. Its list accessors below read the per-AS maps;
    {!view} gives the same adjacency as dense int arrays. *)

val create : unit -> t

val add_as :
  t -> ?name:string -> ?country:Country.t -> ?kind:kind -> Asn.t -> unit
(** Register an AS. Defaults: name ["ASn"], country [Country.nl],
    kind [Stub]. Re-adding an existing ASN raises [Invalid_argument].
    Drops the dense {!view}. *)

val add_edge : t -> Asn.t -> Relationship.t -> Asn.t -> unit
(** [add_edge g a rel b] links [a] and [b]; [rel] is [b]'s role from
    [a]'s perspective ([Customer] = [b] is [a]'s customer). The
    inverse edge is added automatically. Both ASes must exist;
    duplicate edges raise [Invalid_argument]. Drops the dense {!view}. *)

val remove_edge : t -> Asn.t -> Asn.t -> unit
(** Unlink [a] and [b] if they are adjacent, dropping the dense
    {!view}; a no-op otherwise. *)

val originate : t -> Asn.t -> Prefix.t -> unit
(** Record that the AS originates the prefix. *)

val mem : t -> Asn.t -> bool
val node : t -> Asn.t -> node option
val node_exn : t -> Asn.t -> node

val neighbors : t -> Asn.t -> (Asn.t * Relationship.t) list
(** All neighbors with their relationship from this AS's perspective,
    in ascending ASN order. *)

val relationship : t -> Asn.t -> Asn.t -> Relationship.t option
(** [relationship g a b] is [b]'s role from [a]'s perspective. *)

val customers : t -> Asn.t -> Asn.t list
val providers : t -> Asn.t -> Asn.t list
val peers_of : t -> Asn.t -> Asn.t list

val prefixes_of : t -> Asn.t -> Prefix.t list
(** Prefixes originated by this AS, in address order. *)

val origin_of : t -> Prefix.t -> Asn.t option
(** The AS originating exactly this prefix, if any. *)

val ases : t -> Asn.t list
(** All ASNs, ascending. *)

val n_ases : t -> int
val n_edges : t -> int
val n_prefixes : t -> int

val fold_ases : (node -> 'a -> 'a) -> t -> 'a -> 'a

val iter_prefixes : (Asn.t -> Prefix.t -> unit) -> t -> unit

(** {1 Dense view}

    The adjacency as int arrays over dense AS indices, for engines
    whose inner loop walks every edge (valley-free propagation). The
    index of an AS is its rank in ascending ASN order, so scanning
    indices [0 .. n-1] visits ASes in ascending ASN order. *)

type view = private {
  asns : Asn.t array;  (** index → ASN, ascending *)
  provider_off : int array;
  provider_adj : int array;
      (** compressed sparse rows: the providers of index [i] are
          [provider_adj.(k)] for [provider_off.(i) <= k <
          provider_off.(i+1)], as indices in ascending order;
          [provider_off] has [n + 1] entries *)
  peer_off : int array;
  peer_adj : int array;  (** peers, laid out like providers *)
  customer_off : int array;
  customer_adj : int array;  (** customers, laid out like providers *)
}

val view : t -> view
(** The dense view of the graph's current ASes and edges. Built on
    first use and kept until {!add_as}, {!add_edge} or {!remove_edge}
    changes the graph; the next call then builds a fresh one. A view
    is immutable: one taken before a change keeps describing the graph
    as it was. *)

val index : view -> Asn.t -> int
(** [index v asn] is [asn]'s dense index in [v], or [-1] if [v] has no
    such AS. O(log n). *)
