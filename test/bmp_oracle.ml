(* The reference BMP decoder the differential tests diff [Bmp.decode]
   against: direct byte indexing instead of [Wire.Cursor], with its
   own copy of the RFC 7854 validation sequence, so a slip in either
   decoder shows up as a disagreement. Embedded BGP PDUs go through
   [Wire.decode], the one BGP decoder. Same contract as [Bmp.decode]:
   the same message or the same [Bmp.error] on every input. *)

open Peering_net
open Peering_bgp
open Bmp

let hdr_len = 6
let max_len = 1 lsl 20

exception Fail of error

let fail e = raise (Fail e)

(* Stat types 7 and 8 (Adj-RIB-In and Loc-RIB route counts) are
   64-bit gauges; every other type is a 32-bit counter. *)
let stat_is_u64 ty = ty = 7 || ty = 8

let check_peer_flags ~ptype ~flags ~d_hi ~d_lo =
  if ptype <> 0 then
    fail (Bad_peer_header (Printf.sprintf "peer type %d" ptype));
  if flags land 0x80 <> 0 then fail (Bad_peer_header "IPv6 peer unsupported");
  if flags land 0x7F <> 0 then
    fail (Bad_peer_header (Printf.sprintf "flags 0x%02x" flags));
  if d_hi <> 0 || d_lo <> 0 then
    fail (Bad_peer_header "nonzero peer distinguisher")

let check_addr16 ~what ~a ~b ~c =
  if a <> 0 || b <> 0 || c <> 0 then
    fail (Bad_msg (Printf.sprintf "%s not IPv4-mapped" what))

let check_stamp_us us =
  if us >= 1_000_000 then fail (Bad_peer_header "microseconds out of range")

let check_peer_down_reason r =
  if r < 1 || r > 6 then
    fail (Bad_msg (Printf.sprintf "peer-down reason %d" r))

let stat_value_len ty len =
  if stat_is_u64 ty then begin
    if len <> 8 then fail (Bad_msg (Printf.sprintf "stat %d length %d" ty len))
  end
  else if len <> 4 then
    fail (Bad_msg (Printf.sprintf "stat %d length %d" ty len))

let check_pdu_end ~exact ~want_end got_end =
  if got_end > want_end then fail (Bad_msg "embedded PDU overruns message");
  if exact && got_end < want_end then fail (Bad_msg "trailing bytes")

exception Overrun

type rd = { rbuf : bytes; mutable rp : int; rlimit : int }

let r8 r =
  if r.rlimit - r.rp < 1 then raise Overrun;
  let v = Char.code (Bytes.get r.rbuf r.rp) in
  r.rp <- r.rp + 1;
  v

let r16 r =
  let a = r8 r in
  let b = r8 r in
  (a lsl 8) lor b

let r32 r =
  let a = r16 r in
  let b = r16 r in
  (a lsl 16) lor b

let rstr r n =
  if n < 0 || r.rlimit - r.rp < n then raise Overrun;
  let s = Bytes.sub_string r.rbuf r.rp n in
  r.rp <- r.rp + n;
  s

let decode buf ~pos =
  let total = Bytes.length buf in
  if pos < 0 || pos > total then invalid_arg "Bmp_oracle.decode: bad position";
  if total - pos < hdr_len then Error Truncated
  else begin
    let v = Char.code (Bytes.get buf pos) in
    if v <> version then Error (Bad_version v)
    else
      let len =
        let g i = Char.code (Bytes.get buf (pos + i)) in
        (g 1 lsl 24) lor (g 2 lsl 16) lor (g 3 lsl 8) lor g 4
      in
      if len < hdr_len || len > max_len then Error (Bad_length len)
      else
        let ty = Char.code (Bytes.get buf (pos + 5)) in
        if ty > 5 then Error (Bad_type ty)
        else if total - pos < len then Error Truncated
        else begin
          let body_end = pos + len in
          let r = { rbuf = buf; rp = pos + hdr_len; rlimit = body_end } in
          let peer_header () =
            let ptype = r8 r in
            let flags = r8 r in
            let d_hi = r32 r in
            let d_lo = r32 r in
            check_peer_flags ~ptype ~flags ~d_hi ~d_lo;
            let a = r32 r in
            let b = r32 r in
            let c3 = r32 r in
            if a <> 0 || b <> 0 || c3 <> 0 then
              fail (Bad_peer_header "peer address not IPv4-mapped");
            let addr = Ipv4.of_int (r32 r) in
            let asn = Asn.of_int (r32 r) in
            let bgp_id = Ipv4.of_int (r32 r) in
            let stamp_s = r32 r in
            let stamp_us = r32 r in
            check_stamp_us stamp_us;
            { peer_addr = addr; peer_asn = asn; peer_bgp_id = bgp_id;
              stamp_s; stamp_us
            }
          in
          let embedded_pdu ~exact =
            match Wire.decode pdu_opts buf ~pos:r.rp with
            | Error e -> fail (Bad_payload e)
            | Ok (m, pdu_end) ->
              check_pdu_end ~exact ~want_end:body_end pdu_end;
              r.rp <- pdu_end;
              m
          in
          let strict_end () =
            if r.rp <> body_end then fail (Bad_msg "trailing bytes")
          in
          let info_tlvs () =
            let rec go acc =
              if r.rp = body_end then List.rev acc
              else
                let ty = r16 r in
                let l = r16 r in
                let v = rstr r l in
                go ((ty, v) :: acc)
            in
            go []
          in
          try
            let m =
              match ty with
              | 0 ->
                let peer = peer_header () in
                (match embedded_pdu ~exact:true with
                | Message.Update u -> Route_monitoring { peer; update = u }
                | _ -> fail (Bad_msg "embedded PDU is not an UPDATE"))
              | 1 ->
                let peer = peer_header () in
                let n = r32 r in
                if n > 0xFFFF then fail (Bad_msg "stat count");
                let stats = ref [] in
                for _ = 1 to n do
                  let sty = r16 r in
                  let slen = r16 r in
                  stat_value_len sty slen;
                  let v =
                    if slen = 8 then
                      let hi = r32 r in
                      let lo = r32 r in
                      (hi lsl 32) lor lo
                    else r32 r
                  in
                  stats := { stat_type = sty; stat_value = v } :: !stats
                done;
                strict_end ();
                Stats_report { peer; stats = List.rev !stats }
              | 2 ->
                let peer = peer_header () in
                let reason = r8 r in
                check_peer_down_reason reason;
                strict_end ();
                Peer_down { peer; reason }
              | 3 ->
                let peer = peer_header () in
                let a = r32 r in
                let b = r32 r in
                let c3 = r32 r in
                check_addr16 ~what:"local address" ~a ~b ~c:c3;
                let local_addr = Ipv4.of_int (r32 r) in
                let local_port = r16 r in
                let remote_port = r16 r in
                let open1 =
                  match embedded_pdu ~exact:false with
                  | Message.Open o -> o
                  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")
                in
                let open2 =
                  match embedded_pdu ~exact:true with
                  | Message.Open o -> o
                  | _ -> fail (Bad_msg "embedded PDU is not an OPEN")
                in
                Peer_up
                  { peer; local_addr; local_port; remote_port;
                    sent_open = open1; recv_open = open2
                  }
              | 4 -> Initiation { info = info_tlvs () }
              | 5 -> Termination { info = info_tlvs () }
              | _ -> assert false
            in
            Ok (m, body_end)
          with
          | Fail e -> Error e
          | Overrun -> Error (Bad_msg "body overrun")
        end
  end
