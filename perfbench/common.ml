(* Shared measurement plumbing: clock, sample sets, process memory, GC
   deltas and the result lines every workload prints. *)

(** The process's CPU clock in seconds (cpu_clock.c).  The end-to-end
    times are read from it: it stops while the host runs something
    else, so a stolen slice does not land in an op's time.  An op
    spread over several domains is charged for all of them. *)
external now : unit -> (float[@unboxed])
  = "perfbench_cpu_now_byte" "perfbench_cpu_now"
[@@noalloc]

(** Monotonic wall clock in seconds, about ten times cheaper to read:
    the per-layer spans of a traced run, some of which last a
    microsecond, are read from it. *)
external span_now : unit -> (float[@unboxed])
  = "perfbench_mono_now_byte" "perfbench_mono_now"
[@@noalloc]

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Every sample of one quantity, in bounded-growth storage; quantiles
    are taken over all of them. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(capacity = 1024) () =
    { a = Array.make (max 1 capacity) 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let count t = t.n

  (** Nearest-rank quantile, [q] in (0, 1]; [nan] when empty. *)
  let quantile t q =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let median t = quantile t 0.5
end

(** Fisher-Yates shuffle of [a] in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** Host speed.  The host shares its cores with other machines, and
    the same code can run twice as slowly in one run as in the next.
    So the workloads time a fixed probe between their ops, at most once
    per [interval_s], and just before each set-up: integer work and
    dependent loads over a ring small enough to stay in the core's own
    cache, using nothing of the program under test.  The ring is walked
    once untimed before each timed walk, so what the workload left in
    the caches changes the probe little.  A time is multiplied by the
    square root of the reference host's median probe over this host's
    probe: the workloads' times follow the probe's at about half its
    strength when the host is busiest (README.md).  Per-layer times are
    not scaled. *)
module Speed = struct
  let ring_len = 1 lsl 12 (* 32 KiB of ints *)
  let steps = 100_000

  (* One cycle through every slot, in a fixed pseudo-random order. *)
  let ring =
    let order = Array.init ring_len Fun.id in
    shuffle (Random.State.make [| 0x5bee |]) order;
    let r = Array.make ring_len 0 in
    Array.iteri (fun i a -> r.(a) <- order.((i + 1) mod ring_len)) order;
    r

  let walk steps =
    let i = ref 0 and h = ref 0 in
    for _ = 1 to steps do
      i := Array.unsafe_get ring !i;
      h := ((!h * 31) + !i) land max_int
    done;
    !h

  (* The median probe on the reference host (README.md), in seconds. *)
  let reference_s = 2.3e-4
  let interval_s = 0.02
  let probes = Samples.create ()
  let last = ref neg_infinity

  (** Time one probe and keep it for [scale]. *)
  let probe () =
    ignore (Sys.opaque_identity (walk ring_len));
    let t0 = now () in
    ignore (Sys.opaque_identity (walk steps));
    let p = now () -. t0 in
    Samples.add probes p;
    last := span_now ();
    p

  (** Probe if [interval_s] has passed since the last probe.  Call it
      between ops, outside any timed span. *)
  let tick () = if span_now () -. !last >= interval_s then ignore (probe ())

  (* What a time taken while the probe reads [p] is multiplied by. *)
  let factor p = Float.sqrt (reference_s /. p)

  (** What this run's op times are multiplied by: below 1 when this
      host ran slower than the reference. *)
  let scale () =
    if Samples.count probes = 0 then ignore (probe ());
    factor (Samples.median probes)

  (** [time f], the time scaled by a probe taken just before: for
      set-ups, which come before most of a run's probes. *)
  let time f =
    let k = factor (probe ()) in
    let r, dt = time f in
    (r, dt *. k)
end

(** Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(** Words reachable from a value, for per-route table footprints. *)
let live_words v = Obj.reachable_words (Obj.repr v)

(** Allocation and collection work between two points. *)
module Gc_delta = struct
  type t = { minor : float; promoted : float; major : int }

  let start () =
    let s = Gc.quick_stat () in
    { minor = s.Gc.minor_words;
      promoted = s.Gc.promoted_words;
      major = s.Gc.major_collections
    }

  let stop t0 =
    let s = Gc.quick_stat () in
    { minor = s.Gc.minor_words -. t0.minor;
      promoted = s.Gc.promoted_words -. t0.promoted;
      major = s.Gc.major_collections - t0.major
    }

  let metrics t ~ops =
    let ops = float_of_int (max 1 ops) in
    [ ("gc.minor_words_per_op", t.minor /. ops, "words");
      ("gc.promoted_words_per_op", t.promoted /. ops, "words");
      ("gc.major_collections_per_kop", float_of_int t.major *. 1000.0 /. ops,
       "count")
    ]
end

(** Value of a counter in the default metrics registry (0 if the
    layer never registered it). *)
let counter name = Peering_obs.Metrics.counter_value name

(** Hex MD5 of a list of strings, joined by newlines. *)
let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Layers a workload never reaches report zero work. *)
let idle_tenant_layers =
  [ ("sched.pump_us_per_op", 0.0, "us");
    ("sched.admit_us", 0.0, "us");
    ("check.vet_us_per_admit", 0.0, "us");
    ("testbed.crash_restart_ms", 0.0, "ms")
  ]

let no_lateness = ("loadgen.lateness_p99_us", 0.0, "us")

let idle_feed_layers =
  List.map
    (fun n ->
      let unit =
        if String.ends_with ~suffix:"words_per_route" n then "words" else "ns"
      in
      (n, 0.0, unit))
    [ "wire.decode_ns_per_msg"; "server.learn_ns_per_route";
      "server.withdraw_ns_per_route"; "server.live_words_per_route";
      "bmp.export_ns_per_msg"; "monitor.ingest_ns_per_msg";
      "monitor.live_words_per_route"; "client_rib.announce_ns_per_route";
      "client_rib.withdraw_ns_per_route"; "client_rib.live_words_per_route" ]
  @ [ ("bmp.bytes_per_route", 0.0, "B"); no_lateness ]

(** [f ()] with the per-op deltas of the [topo.propagation.*]
    counters it caused. *)
let propagation_metrics ~ops f =
  let names = [ "rounds"; "offers"; "adoptions" ] in
  let read n = counter ("topo.propagation." ^ n) in
  let before = List.map read names in
  let r = f () in
  let per_op n b =
    ( Printf.sprintf "propagation.%s_per_op" n,
      float_of_int (read n - b) /. float_of_int (max 1 ops),
      "count" )
  in
  (r, List.map2 per_op names before)

(** What a workload hands back to [Main] for printing. *)
type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named correctness checks *)
  fingerprint : (string * Peering_obs.Json.t) list;
      (** deterministic per seed: same seed, same values *)
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(** The end-to-end metrics every workload reports: set-up times
    already scaled by [Speed.time], and the op times of the timed phase
    in seconds of this host, which are scaled here (see [Speed]).  So
    is [ops_per_s], unless the load was [paced] at a fixed rate. *)
let end_to_end ~paced ~setup ~ops_per_s ~p50 ~p99 ~attempted ~failed =
  let k = Speed.scale () in
  [ ("setup_s", Samples.median setup, "s");
    ("ops_per_s", (if paced then ops_per_s else ops_per_s /. k), "1/s");
    ("op_p50_us", p50 *. k *. 1e6, "us");
    ("op_p99_us", p99 *. k *. 1e6, "us");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("ops_ok_frac",
     float_of_int (attempted - failed) /. float_of_int (max 1 attempted),
     "frac")
  ]

let print_outcome ~workload ~seed ~host o =
  let open Peering_obs.Json in
  let line j = print_endline (to_string j) in
  line
    (Obj
       [ ("host", Obj (host @ [ ("speed_scale", Float (Speed.scale ())) ])) ]);
  line
    (Obj
       [ ( "fingerprint",
           Obj
             ((("workload", String workload) :: ("seed", Int seed)
              :: o.fingerprint)) )
       ]);
  List.iter
    (fun (name, ok) ->
      if not ok then Printf.printf "check failed: %s\n" name)
    o.checks;
  let correct = o.failed = 0 && List.for_all snd o.checks in
  line
    (Obj
       [ ("correct", Bool correct);
         ("attempted", Int o.attempted);
         ("failed", Int o.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, v, u) ->
                  (name, Obj [ ("value", Float v); ("unit", String u) ]))
                o.metrics) )
       ])
