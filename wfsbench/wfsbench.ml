(* The wfs benchmark program.  One invocation runs one workload in its
   own process:

     wfsbench.exe --workload W --seed N --seconds S --trace 0|1 [--dir D]

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   probes the layers, records spans (written under D/out/) and reports
   the per-layer metrics.  Either way every output is checked and the
   last line of standard output is the JSON result.

     wfsbench.exe --regen census|verify [--dir D]   rewrite an expectation file
     wfsbench.exe --self-test [--dir D]             doctored inputs must fail
     wfsbench.exe --calibrate                       time the host reference kernel *)

open Wfs

let workloads = [ "serve-counter"; "serve-kvmap"; "census"; "verify" ]

let run ~workload ~seed ~seconds ~trace ~dir =
  let r = Report.create () in
  let resolution = Nclock.resolution_ns ~reads:100_000 in
  Printf.printf "clock resolution <= %d ns\n%!" resolution;
  Report.check r "clock resolution below 1 us" (resolution < 1_000);
  let out = Filename.concat dir "out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let spans_out = Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
  (match (workload, trace) with
  | "serve-counter", false -> Serve.untraced Serve.counter ~seed ~seconds r
  | "serve-kvmap", false -> Serve.untraced Serve.kvmap ~seed ~seconds r
  | "census", false -> Checking.Census_wl.untraced ~dir ~seconds r
  | "verify", false -> Checking.Verify_wl.untraced ~dir ~seconds r
  | "serve-counter", true -> Serve.traced Serve.counter ~seed ~seconds ~spans_out r
  | "serve-kvmap", true -> Serve.traced Serve.kvmap ~seed ~seconds ~spans_out r
  | "census", true -> Checking.Census_wl.traced ~dir ~seconds ~spans_out r
  | "verify", true -> Checking.Verify_wl.traced ~dir ~seconds ~spans_out r
  | w, _ ->
      Printf.eprintf "unknown workload %S (have %s)\n" w (String.concat ", " workloads);
      exit 2);
  if trace then begin
    let host = Host.create () in
    Host.sample ~times:5 host;
    Report.metric r "host.slowdown" "ratio" (Host.slowdown host);
    Report.metric r "gc.top_heap_mb" "MiB" (Heap.words_mb (Gc.quick_stat ()).Gc.top_heap_words);
    Printf.printf "spans written to %s\n" spans_out
  end;
  Report.print r

(* Each doctored input must drive the error rate above 0, and each
   clean one must keep it at 0. *)
let self_test ~dir =
  let all_ok = ref true in
  let expect what ~doctored (f : Report.t -> unit) =
    let r = Report.create () in
    f r;
    let ok = if doctored then r.failed > 0 else r.failed = 0 && r.attempted > 0 in
    Printf.printf "self-test %-52s error_rate=%.3g %s\n%!" what (Report.error_rate r)
      (if ok then "ok" else "FAILED");
    if not ok then all_ok := false
  in
  let serve doctor r =
    let t = Serve.create { Serve.counter with ops_per_pass = 2_000 } ~seed:7 in
    Serve.issue t;
    doctor t;
    Serve.check t r
  in
  expect "serve: clean pass" ~doctored:false (serve ignore);
  expect "serve: flipped result" ~doctored:true
    (serve (fun t -> t.Serve.cl.(0).res.(7) <- Value.str "doctored"));
  expect "serve: duplicated position" ~doctored:true
    (serve (fun t -> t.Serve.cl.(1).pos.(3) <- t.Serve.cl.(0).pos.(3)));
  let module C = Checking.Census_wl in
  let row = "counter" in
  let m = Census.measure ~max_nodes:C.max_nodes (Zoo.find row) in
  let mine = List.filter (fun (o, _) -> o = row) (C.load dir) in
  expect "census: matching expectation" ~doctored:false (fun r -> C.check r mine [ m ]);
  expect "census: doctored verdict" ~doctored:true (fun r ->
      C.check r (List.map (fun (o, fs) -> (o, ("n2", "unsolvable") :: List.remove_assoc "n2" fs)) mine) [ m ]);
  expect "census: doctored winning initialisation" ~doctored:true (fun r ->
      C.check r (List.map (fun (o, fs) -> (o, ("init2", "none") :: List.remove_assoc "init2" fs)) mine) [ m ]);
  let module V = Checking.Verify_wl in
  let c = List.nth V.cases 2 in
  let report = V.verify c (V.build c) in
  let want = V.load dir in
  expect "verify: matching expectation" ~doctored:false (fun r -> V.check r want c report);
  expect "verify: doctored state count" ~doctored:true (fun r ->
      V.check r (List.map (fun (k, s) -> (k, s + 1)) want) c report);
  expect "verify: flipped agreement" ~doctored:true (fun r ->
      V.check r want c { report with Protocol.agreement = false });
  exit (if !all_ok then 0 else 1)

(* The reference kernel's median time: what [Host.nominal_ns] should
   read on an unloaded host. *)
let calibrate_host () =
  let h = Host.create () in
  Host.sample ~times:40 h;
  Printf.printf "kernel median %.0f ns (nominal %.0f ns)\n"
    (Host.slowdown h *. Host.nominal_ns) Host.nominal_ns

let () =
  Printexc.record_backtrace true;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dir = ref "wfsbench" and regen = ref "" and selftest = ref false in
  let calibrate = ref false in
  let stamp = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--dir", Arg.Set_string dir, "DIR the benchmark's directory (expectation files)");
      ("--regen", Arg.Set_string regen, "census|verify rewrite an expectation file");
      ("--calibrate", Arg.Set calibrate, " time the host reference kernel");
      ("--self-test", Arg.Set selftest, " check that doctored inputs fail");
      ("--stamp", Arg.String (fun s -> stamp := s :: !stamp), "K=V add to the run stamp");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "wfsbench.exe [options]";
  if !calibrate then calibrate_host ()
  else if !selftest then self_test ~dir:!dir
  else if !regen = "census" then Checking.Census_wl.regen !dir
  else if !regen = "verify" then Checking.Verify_wl.regen !dir
  else begin
    if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
    let open Obs.Json in
    print_endline
      (to_string
         (obj
            [
              ( "stamp",
                obj
                  ([
                     ("workload", str !workload); ("seed", int !seed);
                     ("seconds", float !seconds); ("trace", int !trace);
                     ("ocaml", str Sys.ocaml_version);
                     ("nproc", int (Domain.recommended_domain_count ()));
                   ]
                  @ List.rev_map
                      (fun kv ->
                        match String.index_opt kv '=' with
                        | Some i -> (String.sub kv 0 i, str (String.sub kv (i + 1) (String.length kv - i - 1)))
                        | None -> (kv, null))
                      !stamp) );
            ]));
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir
  end
