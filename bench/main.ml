(* The benchmark harness: regenerates every table/figure-shaped result in
   the paper and measures this repository's constructions.

   The paper (PODC 1988) is a theory paper; its one data figure is the
   consensus hierarchy (Figure 1-1), and its "evaluation" is the set of
   theorems.  Accordingly each section below either regenerates a
   figure/theorem as machine-checked data, measures the cost of a
   construction the paper only proves exists, or times an overhead
   pair.  Serving throughput and latency and search speed are
   measured by wfsbench/ (BENCHMARK.json), not here.  Experiment ids
   match DESIGN.md and EXPERIMENTS.md.

   NOTE on hardware: the harness prints the visible core count first.
   With fewer cores than domains, the multi-domain sections measure
   interleaved concurrency (OS timesharing), not parallelism: shapes —
   who wins, how costs grow — stay meaningful, absolute scaling does
   not. *)

open Wfs

(* ---------- BENCH_results.json accumulation ----------

   Every series lands in these refs; the harness writes them as
   [BENCH_results.json] on exit so the trajectory is machine-trackable
   commit over commit (schema in EXPERIMENTS.md). *)

let series_rows : (string * Obs.Json.t) list ref = ref []

(* Wall-clock duration + monotonic start stamp of every section run, so
   the [series] can be correlated with a [--trace-out] trace of the
   same process (both clocks are Clock.now_ns). *)
let section_timings : (string * Obs.Json.t) list ref = ref []

let record_series name json = series_rows := (name, json) :: !series_rows

(* HEAD commit without shelling out: find the checkout by walking up
   from the executable (the harness may run from any working
   directory), then follow [.git/HEAD] through loose and packed refs.
   "unknown" outside a checkout — the stamp is a provenance aid, never
   a failure. *)
let git_dir () =
  let rec up dir =
    let candidate = Filename.concat dir ".git" in
    if Sys.file_exists candidate && Sys.is_directory candidate then
      Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  match up (Filename.dirname (Unix.realpath Sys.executable_name)) with
  | Some d -> Some d
  | None | (exception Unix.Unix_error _) -> up (Sys.getcwd ())

let git_rev () =
  let first_line path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let line = try Some (input_line ic) with End_of_file -> None in
        close_in ic;
        line
  in
  match git_dir () with
  | None -> "unknown"
  | Some git -> (
      match first_line (Filename.concat git "HEAD") with
      | None -> "unknown"
      | Some head
        when String.length head >= 5 && String.sub head 0 5 = "ref: " -> (
          let r = String.trim (String.sub head 5 (String.length head - 5)) in
          match first_line (Filename.concat git r) with
          | Some sha -> String.trim sha
          | None -> (
              match open_in (Filename.concat git "packed-refs") with
              | exception Sys_error _ -> "unknown"
              | ic ->
                  let rec scan acc =
                    match input_line ic with
                    | exception End_of_file -> acc
                    | line ->
                        if
                          String.length line > 41
                          && line.[0] <> '#'
                          && line.[40] = ' '
                          && String.sub line 41 (String.length line - 41) = r
                        then scan (Some (String.sub line 0 40))
                        else scan acc
                  in
                  let found = scan None in
                  close_in ic;
                  (match found with Some sha -> sha | None -> "unknown")))
      | Some head -> String.trim head)

let write_results path sections_run =
  let sorted_obj rows =
    Obs.Json.obj (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
  in
  let json =
    Obs.Json.obj
      [
        (* version history: EXPERIMENTS.md, BENCH_results.json *)
        ("schema", Obs.Json.str "wfs-bench/10");
        ("generated_unix_time", Obs.Json.float (Unix.time ()));
        ("domains_used", Obs.Json.int (Domain.recommended_domain_count ()));
        ("git_rev", Obs.Json.str (git_rev ()));
        ("ocaml_version", Obs.Json.str Sys.ocaml_version);
        ( "sections",
          Obs.Json.list (List.map Obs.Json.str sections_run) );
        ("series", sorted_obj !series_rows);
        ("section_timings", sorted_obj !section_timings);
        ("metrics", Obs.Metrics.snapshot ());
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.results written to %s@." path

let section title = Fmt.pr "@.=== %s ===@.@." title

(* [f ()] and its wall-clock seconds, on the monotonic Clock.now_ns. *)
let time_once f =
  let r, ns = Obs.Clock.elapsed_ns f in
  (r, float_of_int ns *. 1e-9)

(* The middle sample; for an even count, the mean of the two middle
   samples. *)
let median samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k land 1 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Median of [reps] wall-clock samples of [f].  The median resists
   outliers in both directions — a page-cache-warm fluke as much as a
   noisy neighbour — so the PR-over-PR series only moves when the
   workload does.  (The minimum, used through wfs-bench/4, tracks the
   fastest co-scheduling ever observed instead.) *)
let median_time ~reps f =
  median
    (Array.init reps (fun _ ->
         Gc.minor ();
         snd (time_once f)))

(* Min-of-[reps] seconds of [run] with an instrumentation mode off and
   on ([set false] / [set true]), as [(off, on, overhead_pct)].  Both
   modes are warmed first.  Each rep times the two back to back, so
   both face the same machine drift: timing an off block, then an on
   block, let a slow phase of the shared box masquerade as tens of
   percent of (anti-)overhead.  The within-pair order alternates rep to
   rep, because the second run of a pair tends to be faster (warmer
   caches).  The mode is left on whatever [set] last chose. *)
let off_vs_on ~reps ~set run =
  set false;
  run ();
  set true;
  run ();
  let off = ref infinity and on_ = ref infinity in
  let timed mode =
    set mode;
    Gc.minor ();
    let (), dt = time_once run in
    let cell = if mode then on_ else off in
    if dt < !cell then cell := dt
  in
  for rep = 1 to reps do
    if rep land 1 = 0 then begin
      timed false;
      timed true
    end
    else begin
      timed true;
      timed false
    end
  done;
  let off = !off and on_ = !on_ in
  (off, on_, if off > 0. then (on_ -. off) /. off *. 100. else 0.)

(* The event ring recording 1 op in 64, or off and emptied: the mode
   [off_vs_on] toggles for the ring's overhead pairs. *)
let set_ring on =
  if on then Obs.Ring.enable ~sample:64 ()
  else begin
    Obs.Ring.disable ();
    Obs.Ring.reset ()
  end

(* Timed reps per estimate: [WFS_PERF_REPS], the harness's one knob
   (default 5, at least 1).  A value that does not parse stops the
   harness with exit 2 instead of silently running at the default. *)
let perf_reps () =
  match Sys.getenv_opt "WFS_PERF_REPS" with
  | None -> 5
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> max 1 v
      | None ->
          Fmt.epr "WFS_PERF_REPS: expected an integer, got %S@." s;
          exit 2)

(* ---------- F1.1: the hierarchy table ---------- *)

let fig_1_1 () =
  section "F1.1  Figure 1-1, regenerated with machine-checked evidence";
  let table, dt = time_once (fun () -> Table.generate ()) in
  Fmt.pr "%a@." Table.pp table;
  Fmt.pr "@.consistent with the paper: %b   (generated in %.2fs)@."
    (Table.consistent table) dt;
  record_series "fig1.1"
    (Obs.Json.obj
       [
         ("consistent", Obs.Json.bool (Table.consistent table));
         ("seconds", Obs.Json.float dt);
       ])

(* ---------- T2/T6/T11: impossibility proofs by the solver ---------- *)

let impossibility_proofs () =
  section "T2/T6/T11  bounded impossibility proofs (solver, exhaustive)";
  let prove ?max_nodes name inst =
    let (verdict, nodes), dt =
      time_once (fun () -> Solver.solve_with_stats ?max_nodes inst)
    in
    let verdict_str =
      match verdict with
      | Solver.Unsolvable -> "UNSOLVABLE"
      | Solver.Solvable _ -> "solvable"
      | Solver.Out_of_budget _ -> "budget!"
    in
    record_series ("impossibility/" ^ name)
      (Obs.Json.obj
         [
           ("verdict", Obs.Json.str verdict_str);
           ("nodes", Obs.Json.int nodes);
           ("seconds", Obs.Json.float dt);
         ]);
    Fmt.pr "  %-52s %-12s %9d nodes  %6.2fs@." name verdict_str nodes dt
  in
  let reg =
    Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]
  in
  let queue =
    Queues.fifo ~name:"q"
      ~initial:[ Value.str "a"; Value.str "b" ]
      ~items:[ Value.str "a"; Value.str "b" ]
      ()
  in
  prove "Thm 2: register, n=2, ≤2 ops/proc" (Solver.of_spec ~n:2 ~depth:2 reg);
  prove "Thm 2: register, n=2, ≤3 ops/proc" (Solver.of_spec ~n:2 ~depth:3 reg);
  prove "Thm 6: test-and-set, n=3, ≤1 op/proc"
    (Solver.of_spec ~n:3 ~depth:1 (Registers.test_and_set ()));
  prove "Thm 6: test-and-set, n=3, ≤2 ops/proc"
    (Solver.of_spec ~n:3 ~depth:2 (Registers.test_and_set ()));
  prove "Thm 11: queue, n=3, ≤1 op/proc" (Solver.of_spec ~n:3 ~depth:1 queue);
  prove ~max_nodes:80_000_000 "Thm 11: queue, n=3, ≤2 ops/proc"
    (Solver.of_spec ~n:3 ~depth:2 queue);
  prove "DDS: fifo channel, n=2, ≤2 ops/proc"
    (Solver.of_spec ~n:2 ~depth:2
       (Channels.fifo_point_to_point ~name:"ch" ~processes:2
          ~messages:[ Value.pid 0; Value.pid 1 ] ()))

(* ---------- ablation: agreement pruning in the solver ---------- *)

let solver_ablation () =
  section "ABL-1  solver ablation: decide-time agreement pruning";
  let compare_counts name inst =
    let (v1, with_prune) =
      Solver.solve_with_stats ~prune_agreement:true inst
    in
    let (v2, without) =
      Solver.solve_with_stats ~prune_agreement:false inst
    in
    let verdict = function
      | Solver.Unsolvable -> "unsolvable"
      | Solver.Solvable _ -> "solvable"
      | Solver.Out_of_budget _ -> "budget"
    in
    record_series ("solver-ablation/" ^ name)
      (Obs.Json.obj
         [
           ("pruned_nodes", Obs.Json.int with_prune);
           ("unpruned_nodes", Obs.Json.int without);
         ]);
    Fmt.pr "  %-44s pruned: %9d nodes (%s)   unpruned: %9d nodes (%s)@." name
      with_prune (verdict v1) without (verdict v2)
  in
  let reg =
    Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]
  in
  compare_counts "register n=2 d=2" (Solver.of_spec ~n:2 ~depth:2 reg);
  compare_counts "test-and-set n=2 d=2"
    (Solver.of_spec ~n:2 ~depth:2 (Registers.test_and_set ()));
  compare_counts "test-and-set n=3 d=1"
    (Solver.of_spec ~n:3 ~depth:1 (Registers.test_and_set ()))

(* ---------- U3: fetch-and-cons implementations ---------- *)

(* Each row is [ops] fetch-and-cons calls, [batch] at a time on a fresh
   object (short histories, as an amortized per-op cost should see
   them), timed as [median_time] over [reps] runs.  The rounds-based
   construction needs distinct items and per-process handles, and at
   ~45 µs/op one run of one history is the sample. *)
let fac_benches () =
  section "U3  fetch-and-cons implementations (single domain, amortized)";
  let reps = perf_reps () in
  let row name ~reps ~ops ~batch make step =
    let dt =
      median_time ~reps (fun () ->
          for _ = 1 to ops / batch do
            let t = make () in
            for i = 0 to batch - 1 do
              step t i
            done
          done)
    in
    let ns = dt /. float_of_int ops *. 1e9 in
    record_series ("fac/" ^ name)
      (Obs.Json.obj
         [
           ("ns_per_op", Obs.Json.float ns);
           ("ops", Obs.Json.int ops);
           ("reps", Obs.Json.int reps);
         ]);
    Fmt.pr "  %-46s %12.0f ns/op   (median of %d, %d ops)@." ("fac/" ^ name) ns
      reps ops
  in
  let module F = Runtime.Fetch_and_cons in
  row "cas-based" ~reps ~ops:1_000_000 ~batch:1_000 F.Cas_based.make
    (fun t _ -> ignore (F.Cas_based.fetch_and_cons t 1));
  row "swap-based-O(1)" ~reps ~ops:1_000_000 ~batch:1_000 F.Swap_based.make
    (fun t _ -> ignore (F.Swap_based.fetch_and_cons_cells t 1));
  row "rounds-based-(Fig 4-5)" ~reps:1 ~ops:20_000 ~batch:20_000
    (fun () ->
      F.Rounds.handle ~pid:0
        (F.Rounds.make ~n:2 ~equal:(fun (a, b) (c, d) -> a = c && b = d)))
    (fun h i -> ignore (F.Rounds.fetch_and_cons h (0, i)))

(* ---------- U1-SVC: universal object service ---------- *)

(* The served construction's telemetry and checks: batch size and
   truncation from a metrics-hot pass of the batched wait-free object,
   then the closed-loop load harness behind [wfs load], which must pass
   its differential check with truncation active.  Its throughput and
   latency are wfsbench's serve-counter workload. *)
let universal_service () =
  section "U1-SVC  universal object service: batching, truncation, checked load";
  let domains = 4 in
  let hist name =
    match List.assoc_opt name (Obs.Metrics.dump ()) with
    | Some (Obs.Metrics.D_histogram { d_count; d_sum; _ }) -> (d_count, d_sum)
    | _ -> (0, 0)
  in
  let module C = Runtime.Seq_objects.Counter in
  let module WB = Runtime.Universal.Wait_free (C) in
  (* batch-size / truncation telemetry from a short metrics-hot pass *)
  let wb = WB.create ~n:domains () in
  Obs.Metrics.with_hot (fun () ->
      let nodes0, riders0 = hist "universal_rt.wait_free.batch_size" in
      ignore
        (Runtime.Primitives.run_domains domains (fun pid ->
             for _ = 1 to 2_000 do
               ignore (WB.apply wb ~pid C.Incr)
             done));
      let nodes1, riders1 = hist "universal_rt.wait_free.batch_size" in
      let nodes = nodes1 - nodes0 in
      let avg_batch =
        if nodes = 0 then 1.0
        else float_of_int (riders1 - riders0) /. float_of_int nodes
      in
      Fmt.pr "  avg batch %.2f   retained %d (window %d)@." avg_batch
        (WB.retained wb) (WB.window wb);
      record_series "universal-service/summary"
        (Obs.Json.obj
           [
             ("avg_batch", Obs.Json.float avg_batch);
             ("retained", Obs.Json.int (WB.retained wb));
             ("window", Obs.Json.int (WB.window wb));
             ("watermark", Obs.Json.int (WB.watermark wb));
           ]));
  (* The full service path: closed-loop clients through the registry
     handle, differentially checked against the sequential fold. *)
  let r =
    Runtime.Service.Load.run ~seed:1 ~clients:domains ~ops_per_client:10_000
      ()
  in
  Fmt.pr "  %a@." Runtime.Service.Load.pp_report r;
  record_series "universal-service/load-harness"
    (Obs.Json.obj
       [
         ("ops", Obs.Json.int r.Runtime.Service.Load.total_ops);
         ("max_retained", Obs.Json.int r.Runtime.Service.Load.max_retained);
         ("watermark", Obs.Json.int r.Runtime.Service.Load.final_watermark);
         ( "differential_ok",
           Obs.Json.bool (r.Runtime.Service.Load.differential_ok = Some true) );
         ("passed", Obs.Json.bool (Runtime.Service.Load.passed r));
       ])

(* ---------- T7 scaling series ---------- *)

let consensus_scaling () =
  section "T7-HW  one-shot CAS consensus, contending domains";
  List.iter
    (fun domains ->
      let rounds = 20_000 in
      let cells =
        Array.init rounds (fun _ -> Runtime.Consensus.One_shot.make ())
      in
      let (), dt =
        time_once (fun () ->
            ignore
              (Runtime.Primitives.run_domains domains (fun pid ->
                   for i = 0 to rounds - 1 do
                     ignore (Runtime.Consensus.One_shot.decide cells.(i) pid)
                   done)))
      in
      record_series
        (Fmt.str "consensus-scaling/%d-domains" domains)
        (Obs.Json.obj
           [
             ( "consensus_per_ms",
               Obs.Json.float (float_of_int rounds /. dt /. 1000.0) );
             ("instances", Obs.Json.int rounds);
           ]);
      Fmt.pr "  %d domains: %7.0f consensus/ms   (%d instances)@." domains
        (float_of_int rounds /. dt /. 1000.0)
        rounds)
    [ 1; 2; 4 ]

(* ---------- U2: replay-cost series ---------- *)

let replay_cost_series () =
  section
    "U2  replay cost of the k-th operation: plain log vs truncating (§4.1)";
  Fmt.pr "  %6s %18s %22s@." "k" "plain log (ops)" "truncating (ops, n=2)";
  let target = Collections.counter ~name:"c" () in
  List.iter
    (fun k ->
      (* plain: cost of k-th op = k-1 by construction; measure it *)
      let script = List.init k (fun _ -> Collections.incr) in
      let cfg = Log_universal.config ~target ~scripts:[| script |] in
      let outcome =
        Wfs_sim.Runner.run ~procs:cfg.Wfs_sim.Explorer.procs
          ~env:cfg.Wfs_sim.Explorer.env
          ~schedule:Wfs_sim.Scheduler.round_robin ()
      in
      let plain_cost =
        match List.rev outcome.Wfs_sim.Runner.trace with
        | last :: _ -> List.length (Value.as_list last.Wfs_sim.Runner.res)
        | [] -> 0
      in
      (* truncating: run the same script against a second process *)
      let outcome =
        Truncating_universal.run ~target
          ~scripts:[| script; [ Collections.incr ] |]
          ~schedule:Wfs_sim.Scheduler.round_robin ()
      in
      let trunc_max =
        List.fold_left
          (fun acc (_, d) ->
            match d with
            | Value.List entries ->
                List.fold_left
                  (fun acc e ->
                    max acc (Value.as_int (snd (Value.as_pair e))))
                  acc entries
            | _ -> acc)
          0 outcome.Wfs_sim.Runner.decisions
      in
      record_series
        (Fmt.str "replay-cost/k-%d" k)
        (Obs.Json.obj
           [
             ("plain_log_ops", Obs.Json.int plain_cost);
             ("truncating_ops", Obs.Json.int trunc_max);
           ]);
      Fmt.pr "  %6d %18d %22d@." k plain_cost trunc_max)
    [ 1; 2; 4; 8; 16; 32 ]

(* ---------- U4: consensus rounds per fetch-and-cons ---------- *)

let fac_rounds_series () =
  section "U4  consensus rounds per fetch-and-cons (Fig 4-5 bound: ≤ n+1)";
  List.iter
    (fun n ->
      let scripts =
        Array.init n (fun _ -> [ Queues.enq (Value.int 1) ])
      in
      let outcome =
        Consensus_fac.run ~scripts
          ~schedule:(Wfs_sim.Scheduler.random ~seed:42) ()
      in
      (* rounds used = number of decided consensus cells in the array *)
      let env = (Consensus_fac.config ~scripts).Wfs_sim.Explorer.env in
      ignore env;
      let cons_steps =
        List.length
          (List.filter
             (fun (s : Wfs_sim.Runner.step) -> String.equal s.Wfs_sim.Runner.obj "cons")
             outcome.Wfs_sim.Runner.trace)
      in
      record_series
        (Fmt.str "fac-rounds/n-%d" n)
        (Obs.Json.obj
           [
             ("consensus_ops", Obs.Json.int cons_steps);
             ("bound", Obs.Json.int (n * (n + 1)));
           ]);
      Fmt.pr
        "  n = %d: %2d consensus-object operations for %d operations (≤ %d \
         per op allowed)@."
        n cons_steps n (n + 1))
    [ 2; 3; 4 ]

(* ---------- U1-sim: exhaustive universal-construction checks ---------- *)

let universal_verification () =
  section "U1-sim  universal construction verified over all interleavings";
  let target = Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] () in
  let scripts =
    [|
      [ Queues.enq (Value.int 1); Queues.deq ];
      [ Queues.enq (Value.int 2); Queues.deq ];
    |]
  in
  let v, dt = time_once (fun () -> Log_universal.verify ~target ~scripts ()) in
  Fmt.pr "  plain log:   ok=%b  %6d states  %5d terminals  (%.2fs)@."
    v.Log_universal.ok v.Log_universal.states v.Log_universal.terminals dt;
  let v, dt =
    time_once (fun () -> Truncating_universal.verify ~target ~scripts ())
  in
  Fmt.pr
    "  truncating:  ok=%b  %6d states  max replay %d (bound n=2)  (%.2fs)@."
    v.Truncating_universal.ok v.Truncating_universal.states
    v.Truncating_universal.max_replay dt;
  let v, dt =
    time_once (fun () ->
        Consensus_fac.verify
          ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.enq (Value.int 2) ] |]
          ())
  in
  Fmt.pr "  Fig 4-5 fac: ok=%b  %6d states  %5d terminals  (%.2fs)@."
    v.Consensus_fac.ok v.Consensus_fac.states v.Consensus_fac.terminals dt;
  (* Theorem 26 composed end to end: consensus -> fac -> queue *)
  let v, dt =
    time_once (fun () ->
        Composed.verify ~target
          ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.deq ] |]
          ())
  in
  Fmt.pr "  Thm 26 composed (consensus→fac→queue): ok=%b  %6d states  (%.2fs)@."
    v.Composed.ok v.Composed.states dt;
  record_series "universal-verify/thm26-composed"
    (Obs.Json.obj
       [
         ("ok", Obs.Json.bool v.Composed.ok);
         ("states", Obs.Json.int v.Composed.states);
         ("seconds", Obs.Json.float dt);
       ])

(* ---------- F1.1-census: the solver-only hierarchy ---------- *)

let census () =
  section
    "F1.1-census  consensus numbers measured by the solver alone \
     (bounded: n=2 ≤2 ops, n=3 ≤1 op; quantified over reachable inits)";
  let results, dt = time_once (fun () -> Census.run ~max_nodes:30_000_000 ()) in
  Fmt.pr "%a@." Census.pp results;
  Fmt.pr "  (census in %.1fs)@." dt;
  record_series "census" (Obs.Json.obj [ ("seconds", Obs.Json.float dt) ])

(* ---------- EXT-1: randomized consensus (§5) ---------- *)

let randomized_series () =
  section
    "EXT-1  randomized register consensus: abort probability and flips";
  Fmt.pr
    "  exhaustive safety: all schedules x all coin assignments x all inputs@.";
  List.iter
    (fun flips ->
      let v, dt =
        time_once (fun () -> Randomized.verify_all_coins ~flips ())
      in
      Fmt.pr
        "    flips=%d: ok=%b  %4d configurations  %7d states  aborts \
         possible=%b  (%.2fs)@."
        flips v.Randomized.ok v.Randomized.configurations
        v.Randomized.states v.Randomized.aborts_possible dt)
    [ 1; 2; 3 ];
  (* expected coin flips on hardware: conflicts resolve in O(1) expected *)
  let trials = 2_000 in
  let total_flips = ref 0 in
  let agreements = ref 0 in
  for trial = 1 to trials do
    let t = Runtime.Randomized.create () in
    let results =
      Runtime.Primitives.run_domains 2 (fun pid ->
          let rng = Random.State.make [| trial; pid; 77 |] in
          Runtime.Randomized.decide t ~pid ~rng (pid = 0))
    in
    match results with
    | [ (d0, f0); (d1, f1) ] ->
        total_flips := !total_flips + f0 + f1;
        if d0 = d1 then incr agreements
    | _ -> ()
  done;
  record_series "randomized/runtime"
    (Obs.Json.obj
       [
         ("trials", Obs.Json.int trials);
         ("agreements", Obs.Json.int !agreements);
         ( "mean_flips",
           Obs.Json.float (float_of_int !total_flips /. float_of_int trials) );
       ]);
  Fmt.pr
    "  runtime (opposite inputs, %d trials): agreement %d/%d, mean flips \
     per run %.2f@."
    trials !agreements trials
    (float_of_int !total_flips /. float_of_int trials)

(* ---------- EXT-2: Lamport 1P/1C queue (§3.3) ---------- *)

let lamport_queue_bench () =
  section "EXT-2  Lamport 1P/1C queue (registers only) vs CAS-based queues";
  let items = 200_000 in
  let run_1p1c name enq deq =
    let (), dt =
      time_once (fun () ->
          ignore
            (Runtime.Primitives.run_domains 2 (fun pid ->
                 if pid = 0 then begin
                   let sent = ref 0 in
                   while !sent < items do
                     if enq !sent then incr sent else Domain.cpu_relax ()
                   done
                 end
                 else begin
                   let got = ref 0 in
                   while !got < items do
                     match deq () with
                     | Some _ -> incr got
                     | None -> Domain.cpu_relax ()
                   done
                 end)))
    in
    record_series ("lamport/" ^ name)
      (Obs.Json.obj
         [
           ( "transfers_per_ms",
             Obs.Json.float (float_of_int items /. dt /. 1000.0) );
           ("items", Obs.Json.int items);
         ]);
    Fmt.pr "  %-44s %8.0f transfers/ms@." name
      (float_of_int items /. dt /. 1000.0)
  in
  let lq = Runtime.Lamport_queue.create ~capacity:1024 in
  run_1p1c "lamport ring (read/write registers only)"
    (fun x -> Runtime.Lamport_queue.enqueue lq x)
    (fun () -> Runtime.Lamport_queue.dequeue lq);
  let ms = Runtime.Baselines.Michael_scott_queue.make () in
  run_1p1c "michael-scott (CAS)"
    (fun x ->
      Runtime.Baselines.Michael_scott_queue.enqueue ms x;
      true)
    (fun () -> Runtime.Baselines.Michael_scott_queue.dequeue ms);
  Fmt.pr
    "  (the register-only queue is legal here because there is exactly@.\
  \   one enqueuer and one dequeuer — the boundary drawn by §3.3)@."

(* ---------- FAULT: the crash-stop adversary, sim and runtime ----------

   Sim side: verification cost and verdict under a crash budget — the
   state space grows (every placement of up to k halts is explored), and
   every sound registry protocol must keep passing, while the naive
   register protocol must fail with a crash-bearing schedule.  Runtime
   side: halt k of n domains mid-operation against the wait-free
   universal queue; survivors must complete and the recorded history
   (crashed operations left pending) must linearize. *)

let fault_bench () =
  section "FAULT  crash-stop adversary: sim crash budgets + runtime halts";
  List.iter
    (fun (key, n, crashes) ->
      match (Registry.find key).Registry.build ~n with
      | None -> ()
      | Some p ->
          let report, dt =
            time_once (fun () -> Protocol.verify ~crashes p)
          in
          let name = Fmt.str "fault/verify/%s-n%d-c%d" key n crashes in
          record_series name
            (Obs.Json.obj
               [
                 ("ms", Obs.Json.float (dt *. 1e3));
                 ("states", Obs.Json.int report.Protocol.states);
                 ("crashes", Obs.Json.int crashes);
                 ("passed", Obs.Json.bool (Protocol.passed report));
               ]);
          Fmt.pr "  %-44s %8.1f ms %8d states  passed=%b@." name (dt *. 1e3)
            report.Protocol.states
            (Protocol.passed report))
    [
      ("cas", 2, 1); ("cas", 3, 2); ("test-and-set", 2, 1);
      ("queue", 2, 1); ("fetch-and-add", 2, 1);
    ];
  (* the impossibility side: the naive register protocol must fail, and
     the extracted schedule should exercise a crash *)
  (match (Registry.find "register-naive").Registry.build ~n:3 with
  | None -> ()
  | Some p ->
      let v, dt = time_once (fun () -> Protocol.find_violation ~crashes:1 p) in
      let crashing =
        match v with
        | Some v ->
            List.exists
              (function Protocol.Crash _ -> true | Protocol.Step _ -> false)
              v.Protocol.schedule
        | None -> false
      in
      record_series "fault/counterexample/register-naive-n3-c1"
        (Obs.Json.obj
           [
             ("ms", Obs.Json.float (dt *. 1e3));
             ("found", Obs.Json.bool (v <> None));
             ("schedule_has_crash", Obs.Json.bool crashing);
           ]);
      Fmt.pr "  %-44s %8.1f ms  found=%b crash-in-schedule=%b@."
        "fault/counterexample/register-naive-n3-c1" (dt *. 1e3) (v <> None)
        crashing);
  List.iter
    (fun (n, halts) ->
      let s, dt =
        time_once (fun () -> Runtime.Fault.stress_queue ~n ~halts ())
      in
      let name = Fmt.str "fault/stress/n%d-h%d" n halts in
      record_series name
        (Obs.Json.obj
           [
             ("ms", Obs.Json.float (dt *. 1e3));
             ("survivor_ops", Obs.Json.int s.Runtime.Fault.survivor_ops);
             ("crashed_ops", Obs.Json.int s.Runtime.Fault.crashed_ops);
             ("passed", Obs.Json.bool (Runtime.Fault.stress_passed s));
           ]);
      Fmt.pr "  %-44s %8.1f ms  crashed-ops=%d passed=%b@." name (dt *. 1e3)
        s.Runtime.Fault.crashed_ops
        (Runtime.Fault.stress_passed s))
    [ (2, 1); (4, 1); (4, 2); (4, 3) ]

(* ---------- profile: span profiler overhead ----------

   The Profile contract (DESIGN 5.9): one predictable branch when
   disabled, <= 5% on an exploration workload when enabled.  Three
   measurements pin it down:

     profile/overhead          Protocol.verify aug-queue n=4, profiling
                               off vs enabled (coarse spans: shards,
                               solver verdicts)
     profile/recorder-op       recorder-dense loop — rt.op spans at the
                               recorder's 1-in-64 sampling rate, the
                               fine-grained worst case
     profile/disabled-span-ns  Profile.span around a trivial thunk vs
                               the bare thunk, per call, profiler off

   The profiler is disabled and its rings reset before the section
   returns so later sections (and write_results) see a quiet state. *)

let profile_overhead () =
  section "PROFILE  span profiler overhead: off vs enabled (target <=5%)";
  let reps = perf_reps () in
  (* Exploration workload: spans here are coarse (per shard, per solver
     verdict), so the enabled tax must stay well inside the 5% budget. *)
  let aq4 = Aug_queue_consensus.protocol ~n:4 () in
  let off, on_, pct =
    off_vs_on ~reps ~set:set_ring (fun () -> ignore (Protocol.verify aq4))
  in
  set_ring false;
  record_series "profile/overhead"
    (Obs.Json.obj
       [
         ("off_seconds", Obs.Json.float off);
         ("on_seconds", Obs.Json.float on_);
         ("overhead_pct", Obs.Json.float pct);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s off %9.2f ms   on %9.2f ms   overhead %+5.1f%%@."
    "verify-aug-queue-n4" (off *. 1e3) (on_ *. 1e3) pct;
  (* Recorder-dense workload: with profiling enabled the recorder opens
     an rt.op span for 1 op in 64 (sampled — a span per op multiplied
     sub-microsecond ops several-fold), so this measures the amortized
     enabled cost in its least flattering setting (ops that do almost
     nothing). *)
  let ops = 20_000 in
  let off, on_, pct =
    off_vs_on ~reps ~set:set_ring (fun () ->
        let r = Runtime.Recorder.create ~capacity:(2 * ops) in
        for pid = 0 to ops - 1 do
          ignore
            (Runtime.Recorder.around r ~pid:(pid land 7) ~obj:"q"
               ~op:Queues.deq ~encode_res:Value.int (fun () -> 0))
        done)
  in
  set_ring false;
  record_series "profile/recorder-op"
    (Obs.Json.obj
       [
         ("off_ns_per_op", Obs.Json.float (off /. float_of_int ops *. 1e9));
         ("on_ns_per_op", Obs.Json.float (on_ /. float_of_int ops *. 1e9));
         ("overhead_pct", Obs.Json.float pct);
         ("ops", Obs.Json.int ops);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s off %9.1f ns/op on %9.1f ns/op overhead %+5.1f%%@."
    "recorder-op"
    (off /. float_of_int ops *. 1e9)
    (on_ /. float_of_int ops *. 1e9)
    pct;
  (* Disabled micro-cost: Profile.span around a trivial thunk vs the
     bare thunk.  The delta is the price every instrumented seam pays
     when nobody is profiling — it should be a branch, i.e. ~0 ns. *)
  let iters = 2_000_000 in
  let sink = ref 0 in
  let thunk () = incr sink in
  let spanned_thunk () = Obs.Profile.span "bench.noop" thunk in
  let body = ref thunk in
  let bare, spanned, _ =
    off_vs_on ~reps
      ~set:(fun span -> body := if span then spanned_thunk else thunk)
      (fun () ->
        let f = !body in
        for _ = 1 to iters do
          f ()
        done)
  in
  let bare = bare /. float_of_int iters
  and spanned = spanned /. float_of_int iters in
  let delta_ns = (spanned -. bare) *. 1e9 in
  record_series "profile/disabled-span-ns"
    (Obs.Json.obj
       [
         ("bare_ns", Obs.Json.float (bare *. 1e9));
         ("span_ns", Obs.Json.float (spanned *. 1e9));
         ("delta_ns", Obs.Json.float delta_ns);
         ("iters_per_rep", Obs.Json.int iters);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s bare %8.2f ns   span %8.2f ns   delta %+6.2f ns@."
    "disabled-span" (bare *. 1e9) (spanned *. 1e9) delta_ns;
  (* Metrics-hot tax on the wait-free apply path (target <=5%): the
     batched construction's per-op instrumentation — the ops counter,
     help-round and batch-size histograms, log-length gauge — measured
     cold vs hot on the same single-domain workload. *)
  let module WC = Runtime.Universal.Wait_free (Runtime.Seq_objects.Counter) in
  (* ~10ms per timed window: small enough to keep the section quick,
     large enough that a scheduler blip on the shared box doesn't
     swallow the few-percent signal *)
  let wf_ops = 100_000 in
  let wf_run () =
    let w = WC.create ~n:1 () in
    for _ = 1 to wf_ops do
      ignore (WC.apply w ~pid:0 Runtime.Seq_objects.Counter.Incr)
    done
  in
  let was_hot = Obs.Metrics.hot () in
  let off, on_, pct = off_vs_on ~reps ~set:Obs.Metrics.set_hot wf_run in
  Obs.Metrics.set_hot was_hot;
  record_series "profile/wait-free-metrics"
    (Obs.Json.obj
       [
         ("off_ns_per_op", Obs.Json.float (off /. float_of_int wf_ops *. 1e9));
         ("on_ns_per_op", Obs.Json.float (on_ /. float_of_int wf_ops *. 1e9));
         ("overhead_pct", Obs.Json.float pct);
         ("ops", Obs.Json.int wf_ops);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s off %9.1f ns/op on %9.1f ns/op overhead %+5.1f%%@."
    "wait-free-apply-metrics"
    (off /. float_of_int wf_ops *. 1e9)
    (on_ /. float_of_int wf_ops *. 1e9)
    pct

(* ---------- obs-causal: sampled causal tracing overhead ----------

   The Causal contract: 1-in-64 sampled tracing on the universal-service
   hot path costs <= 5%, measured with [off_vs_on] like
   profile/wait-free-metrics.  The help canary stays off — it deliberately parks invocations, so it belongs
   to trace-quality runs, not to the overhead budget. *)

let obs_causal () =
  section "OBS-CAUSAL  sampled causal tracing: off vs on (target <=5%)";
  let reps = perf_reps () in
  let module WC = Runtime.Universal.Wait_free (Runtime.Seq_objects.Counter) in
  let ops = 100_000 in
  let run () =
    let w = WC.create ~label:"bench-counter" ~n:1 () in
    for _ = 1 to ops do
      ignore (WC.apply w ~pid:0 Runtime.Seq_objects.Counter.Incr)
    done
  in
  let off, on_, pct = off_vs_on ~reps ~set:set_ring run in
  set_ring false;
  record_series "obs-causal/universal-service"
    (Obs.Json.obj
       [
         ("off_ns_per_op", Obs.Json.float (off /. float_of_int ops *. 1e9));
         ("on_ns_per_op", Obs.Json.float (on_ /. float_of_int ops *. 1e9));
         ("overhead_pct", Obs.Json.float pct);
         ("sample_every", Obs.Json.int 64);
         ("ops", Obs.Json.int ops);
         ("reps", Obs.Json.int reps);
         ("budget_ok", Obs.Json.bool (pct <= 5.0));
       ]);
  Fmt.pr "  %-34s off %9.1f ns/op on %9.1f ns/op overhead %+5.1f%%@."
    "universal-apply-traced"
    (off /. float_of_int ops *. 1e9)
    (on_ /. float_of_int ops *. 1e9)
    pct

(* ---------- entry point ----------

   With no arguments every section runs; positional arguments select a
   subset (useful in CI and when iterating on one construction).  Either
   way the harness finishes by writing BENCH_results.json. *)

let sections : (string * (unit -> unit)) list =
  [
    ("fig1.1", fig_1_1);
    ("impossibility", impossibility_proofs);
    ("solver-ablation", solver_ablation);
    ("fac", fac_benches);
    ("universal-service", universal_service);
    ("consensus-scaling", consensus_scaling);
    ("replay-cost", replay_cost_series);
    ("fac-rounds", fac_rounds_series);
    ("universal-verify", universal_verification);
    ("census", census);
    ("randomized", randomized_series);
    ("lamport", lamport_queue_bench);
    ("fault", fault_bench);
    ("profile", profile_overhead);
    ("obs-causal", obs_causal);
  ]

let () =
  let argv =
    match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest
  in
  let unknown =
    List.filter (fun s -> not (List.mem_assoc s sections)) argv
  in
  if unknown <> [] then begin
    Fmt.epr "unknown section(s): %a@.available: %a@."
      Fmt.(list ~sep:comma string)
      unknown
      Fmt.(list ~sep:comma string)
      (List.map fst sections);
    exit 2
  end;
  let to_run =
    if argv = [] then sections
    else List.filter (fun (name, _) -> List.mem name argv) sections
  in
  Fmt.pr
    "wfs benchmark harness — reproducing Herlihy (PODC 1988)@.\
     hardware note: %d CPU core(s) visible; multi-domain numbers are@.\
     interleaved concurrency, not parallel speedup.@."
    (Domain.recommended_domain_count ());
  List.iter
    (fun (name, run) ->
      let started_ns = Obs.Clock.now_ns () in
      let (), dt = time_once run in
      section_timings :=
        ( name,
          Obs.Json.obj
            [
              ("seconds", Obs.Json.float dt);
              ("started_ns", Obs.Json.int started_ns);
            ] )
        :: !section_timings)
    to_run;
  write_results "BENCH_results.json" (List.map fst to_run);
  Fmt.pr "@.done.@."
