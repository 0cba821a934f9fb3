open Peering_net

type kind =
  | Tier1
  | Large_transit
  | Small_transit
  | Stub
  | Content
  | Enterprise

let kind_to_string = function
  | Tier1 -> "tier1"
  | Large_transit -> "large-transit"
  | Small_transit -> "small-transit"
  | Stub -> "stub"
  | Content -> "content"
  | Enterprise -> "enterprise"

type node = {
  asn : Asn.t;
  name : string;
  country : Country.t;
  kind : kind;
}

type entry = {
  info : node;
  mutable adj : Relationship.t Asn.Map.t;
  mutable prefixes : Prefix.Set.t;
}

type view = {
  asns : Asn.t array;
  provider_off : int array;
  provider_adj : int array;
  peer_off : int array;
  peer_adj : int array;
  customer_off : int array;
  customer_adj : int array;
}

type t = {
  nodes : (int, entry) Hashtbl.t;
  mutable origin_index : Asn.t Prefix.Map.t;
  mutable edge_count : int;
  mutable prefix_count : int;
  (* The dense view of the current adjacency; [None] after any change
     to the AS set or the edges, rebuilt by the next {!view}. *)
  mutable dense : view option;
}

let create () =
  { nodes = Hashtbl.create 1024;
    origin_index = Prefix.Map.empty;
    edge_count = 0;
    prefix_count = 0;
    dense = None
  }

let entry t asn = Hashtbl.find_opt t.nodes (Asn.to_int asn)

let entry_exn t asn =
  match entry t asn with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "As_graph: unknown %s" (Asn.to_string asn))

let add_as t ?name ?(country = Country.nl) ?(kind = Stub) asn =
  if Hashtbl.mem t.nodes (Asn.to_int asn) then
    invalid_arg (Printf.sprintf "As_graph.add_as: duplicate %s" (Asn.to_string asn));
  let name = Option.value name ~default:(Asn.to_string asn) in
  t.dense <- None;
  Hashtbl.replace t.nodes (Asn.to_int asn)
    { info = { asn; name; country; kind };
      adj = Asn.Map.empty;
      prefixes = Prefix.Set.empty
    }

let add_edge t a rel b =
  if Asn.equal a b then invalid_arg "As_graph.add_edge: self loop";
  let ea = entry_exn t a and eb = entry_exn t b in
  if Asn.Map.mem b ea.adj then
    invalid_arg "As_graph.add_edge: duplicate edge";
  ea.adj <- Asn.Map.add b rel ea.adj;
  eb.adj <- Asn.Map.add a (Relationship.invert rel) eb.adj;
  t.edge_count <- t.edge_count + 1;
  t.dense <- None

let remove_edge t a b =
  let ea = entry_exn t a and eb = entry_exn t b in
  if Asn.Map.mem b ea.adj then begin
    ea.adj <- Asn.Map.remove b ea.adj;
    eb.adj <- Asn.Map.remove a eb.adj;
    t.edge_count <- t.edge_count - 1;
    t.dense <- None
  end

let originate t asn p =
  let e = entry_exn t asn in
  if not (Prefix.Set.mem p e.prefixes) then begin
    e.prefixes <- Prefix.Set.add p e.prefixes;
    t.origin_index <- Prefix.Map.add p asn t.origin_index;
    t.prefix_count <- t.prefix_count + 1
  end

let mem t asn = Hashtbl.mem t.nodes (Asn.to_int asn)
let node t asn = Option.map (fun e -> e.info) (entry t asn)
let node_exn t asn = (entry_exn t asn).info

let neighbors t asn = Asn.Map.bindings (entry_exn t asn).adj

let relationship t a b = Asn.Map.find_opt b (entry_exn t a).adj

let filter_rel t asn want =
  Asn.Map.fold
    (fun n rel acc -> if Relationship.equal rel want then n :: acc else acc)
    (entry_exn t asn).adj []
  |> List.rev

let customers t asn = filter_rel t asn Relationship.Customer
let providers t asn = filter_rel t asn Relationship.Provider
let peers_of t asn = filter_rel t asn Relationship.Peer

let prefixes_of t asn = Prefix.Set.elements (entry_exn t asn).prefixes
let origin_of t p = Prefix.Map.find_opt p t.origin_index

let ases t =
  Hashtbl.fold (fun k _ acc -> Asn.of_int k :: acc) t.nodes []
  |> List.sort Asn.compare

let n_ases t = Hashtbl.length t.nodes
let n_edges t = t.edge_count
let n_prefixes t = t.prefix_count

let fold_ases f t acc =
  List.fold_left (fun acc asn -> f (node_exn t asn) acc) acc (ases t)

let iter_prefixes f t =
  Prefix.Map.iter (fun p asn -> f asn p) t.origin_index

(* ------------------------------------------------------------------ *)
(* Dense view *)

(* Binary search over the ascending ASN array. *)
let search asns asn =
  let a = Asn.to_int asn in
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let m = Asn.to_int asns.(mid) in
      if m = a then mid else if m < a then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length asns)

let index v asn = search v.asns asn

(* Compressed sparse rows per relationship class: the providers of
   index [i] are [provider_adj.(provider_off.(i)) ..
   provider_adj.(provider_off.(i+1) - 1)], and likewise for peers and
   customers. One pass counts each class's row lengths, a second fills
   the rows; each row is ascending because an adjacency map iterates
   in ASN order and the index is monotone in the ASN. *)
let build_view t =
  let n = Hashtbl.length t.nodes in
  let keys = Array.make n 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun a _ ->
      keys.(!k) <- a;
      incr k)
    t.nodes;
  Array.sort Int.compare keys;
  let asns = Array.map Asn.of_int keys in
  let adjs = Array.map (fun a -> (Hashtbl.find t.nodes a).adj) keys in
  let provider_off = Array.make (n + 1) 0
  and peer_off = Array.make (n + 1) 0
  and customer_off = Array.make (n + 1) 0 in
  let off_of : Relationship.t -> int array = function
    | Provider -> provider_off
    | Peer -> peer_off
    | Customer -> customer_off
  in
  Array.iteri
    (fun i adj ->
      Asn.Map.iter
        (fun _ rel ->
          let off = off_of rel in
          off.(i + 1) <- off.(i + 1) + 1)
        adj)
    adjs;
  for i = 1 to n do
    provider_off.(i) <- provider_off.(i) + provider_off.(i - 1);
    peer_off.(i) <- peer_off.(i) + peer_off.(i - 1);
    customer_off.(i) <- customer_off.(i) + customer_off.(i - 1)
  done;
  let provider_adj = Array.make provider_off.(n) 0
  and peer_adj = Array.make peer_off.(n) 0
  and customer_adj = Array.make customer_off.(n) 0 in
  (* Rows are filled in index order, so one cursor per class suffices. *)
  let np = ref 0 and ne = ref 0 and nc = ref 0 in
  Array.iter
    (fun adj ->
      Asn.Map.iter
        (fun b (rel : Relationship.t) ->
          let j = search asns b in
          match rel with
          | Provider ->
            provider_adj.(!np) <- j;
            incr np
          | Peer ->
            peer_adj.(!ne) <- j;
            incr ne
          | Customer ->
            customer_adj.(!nc) <- j;
            incr nc)
        adj)
    adjs;
  { asns; provider_off; provider_adj; peer_off; peer_adj; customer_off;
    customer_adj }

let view t =
  match t.dense with
  | Some v -> v
  | None ->
    let v = build_view t in
    t.dense <- Some v;
    v
