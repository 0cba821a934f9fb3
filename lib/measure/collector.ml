open Peering_net

type kind = Announce | Withdraw

type entry = {
  time : float;
  peer : Asn.t;
  prefix : Prefix.t;
  path : Asn.t list;
  kind : kind;
}

let capacity = 65_536

(* A ring over [buf]: the retained entries, oldest first, are
   [buf.(start)], [buf.(start + 1)], … ([len] of them, indices modulo
   [capacity]). [buf] is allocated on the first record; once it is
   full, each entry overwrites the oldest one. *)
type t = {
  mutable buf : entry array;
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
}

let create () = { buf = [||]; start = 0; len = 0; dropped = 0 }

let nth t i = t.buf.((t.start + i) mod capacity)

let record t ~time ~peer ~prefix ~path kind =
  let e = { time; peer; prefix; path; kind } in
  if Array.length t.buf = 0 then t.buf <- Array.make capacity e;
  if t.len < capacity then begin
    t.buf.((t.start + t.len) mod capacity) <- e;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.start) <- e;
    t.start <- (t.start + 1) mod capacity;
    t.dropped <- t.dropped + 1
  end

let entries t = List.init t.len (nth t)

let for_prefix t prefix =
  List.filter (fun e -> Prefix.equal e.prefix prefix) (entries t)

let churn t prefix = List.length (for_prefix t prefix)

let last_path t prefix =
  let rec find i =
    if i < 0 then None
    else
      let e = nth t i in
      if Prefix.equal e.prefix prefix then
        match e.kind with Announce -> Some e.path | Withdraw -> None
      else find (i - 1)
  in
  find (t.len - 1)

let n_entries t = t.len
let dropped t = t.dropped

let clear t =
  t.buf <- [||];
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0
