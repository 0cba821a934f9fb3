(** A route collector in the RouteViews/RIPE-RIS mould: a passive
    archive of control-plane events, queryable by prefix and peer.

    PEERING "automatically collect[s] regular control and data plane
    measurements towards PEERING prefixes" (§3); the testbed records
    every announcement its servers see into one of these.

    The archive is a ring of {!capacity} events: once full, each new
    event overwrites the oldest, and {!dropped} counts how many were
    overwritten. Every query reads the retained events only, so a
    result computed after a drop covers the newest {!capacity} events;
    check {!dropped} before reading it as a whole-history figure. *)

open Peering_net

type kind = Announce | Withdraw

type entry = {
  time : float;
  peer : Asn.t;  (** AS the event was heard from *)
  prefix : Prefix.t;
  path : Asn.t list;  (** empty for withdrawals *)
  kind : kind;
}

type t

val capacity : int
(** Events an archive retains: 65,536. *)

val create : unit -> t
(** An empty archive. Its ring is allocated on the first {!record}. *)

val record :
  t -> time:float -> peer:Asn.t -> prefix:Prefix.t -> path:Asn.t list ->
  kind -> unit

val entries : t -> entry list
(** The retained events, oldest first. *)

val for_prefix : t -> Prefix.t -> entry list

val churn : t -> Prefix.t -> int
(** Number of retained events (announcements + withdrawals) for the
    prefix — the dampening ablation's measurement. *)

val last_path : t -> Prefix.t -> Asn.t list option
(** Path of the most recent announcement not followed by a
    withdrawal, if any. *)

val n_entries : t -> int
(** Retained events; at most {!capacity}. *)

val dropped : t -> int
(** Events overwritten because the ring was full, since creation or
    the last {!clear}. *)

val clear : t -> unit
(** Forget every event and reset {!dropped}. *)
