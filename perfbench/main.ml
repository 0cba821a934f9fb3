(* Entry point: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--commit SHA] [--nproc N]

   Prints a host line, a fingerprint line and, last, the result
   object.  Exits non-zero on a bad argument. *)

let workloads =
  [ ("tenant-churn", Tenant.tenant_churn);
    ("full-feed", Feed.full_feed);
    ("feed-churn", Feed.feed_churn)
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and commit = ref "unknown" and nproc = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run instead of end-to-end");
      ("--commit", Arg.Set_string commit, "SHA commit under test");
      ("--nproc", Arg.Set_int nproc, "N processors available")
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some run ->
    if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    let host =
      let open Peering_obs.Json in
      [ ("nproc", Int !nproc);
        ("recommended_domains", Int (Domain.recommended_domain_count ()));
        ("ocaml", String Sys.ocaml_version);
        ("commit", String !commit)
      ]
    in
    let o = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    Common.print_outcome ~workload:!workload ~seed:!seed ~host o
