(* The checking workloads: the solver-only census of the object zoo,
   and exhaustive protocol verification on a domain pool.  A pass is
   one whole census, or one verification of every case; each pass's
   verdicts are checked against expectation files kept beside this
   benchmark. *)

open Wfs
module Json = Obs.Json
module Metrics = Obs.Metrics

let f = float_of_int
let secs ns = f ns *. 1e-9

let read_json path =
  Json.of_string (In_channel.with_open_text path In_channel.input_all)

let member k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let to_str j = Option.get (Json.to_str j)
let to_int j = Option.get (Json.to_int j)
let to_list j = Option.get (Json.to_list j)

(* One untraced pass over [units] (census rows, or protocols), with
   the host kernel sampled after each unit: the results, the units'
   total time in ns, and that total normalised to the nominal host,
   each unit's time divided by the host's slowdown beside it. *)
let interleaved host units run =
  let results, raw, norm =
    List.fold_left
      (fun (acc, raw, norm) u ->
        let x, ns, slowdown = Host.beside host (fun () -> run u) in
        (x :: acc, raw + ns, norm +. (f ns /. slowdown)))
      ([], 0, 0.) units
  in
  (List.rev results, (raw, norm))

(* The end-to-end metrics shared by both checking workloads, from the
   passes' raw and normalised times; a pass yields [verdicts]
   verdicts. *)
let pass_metrics (r : Report.t) host ~heap_since ~verdicts ~setup_s passes =
  let np = List.length passes in
  let raw = List.map (fun (ns, _) -> f ns *. 1e-9) passes in
  let norm = List.map (fun (_, ns) -> ns *. 1e-9) passes in
  let both name unit stat =
    Report.normalised r ~samples:np name unit ~raw:(stat raw) (stat norm)
  in
  let p99 l = Stats.quantile_sorted (Array.of_list (List.sort Float.compare l)) 0.99 in
  Report.host_line host;
  both "ops_per_s" "1/s" (fun l -> f verdicts /. Stats.median l);
  both "lat_p99_ns" "ns" (fun l -> p99 l *. 1e9);
  both "time_to_verdict_s" "s" Stats.median;
  Report.normalised r ~samples:Loop.setups "setup_s" "s" ~raw:setup_s
    (setup_s /. Host.slowdown host);
  Report.metric r "peak_heap_mb" "MiB" (Heap.growth_mb ~since:heap_since)

(* Metric names allow letters, digits, '_', '.' and '-'. *)
let metric_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c | _ -> '_')
    s

(* --- census --------------------------------------------------------- *)

module Census_wl = struct
  let max_nodes = 200_000
  let expect_budget = 2_000_000
  let warm_nodes = 2_000
  let file dir = Filename.concat dir "census.expect.json"

  let outcome = function
    | Census.Solvable -> "solvable"
    | Census.Unsolvable -> "unsolvable"
    | Census.Budget -> "budget"

  let init = function None -> "none" | Some v -> Value.show v

  (* The checked fields of one row. *)
  let fields (m : Census.measurement) =
    [
      ("n2", outcome (fst m.two_proc));
      ("n3", outcome (fst m.three_proc));
      ("init2", init m.winning_init2);
      ("init3", init m.winning_init3);
    ]

  let field_names = [ "n2"; "n3"; "init2"; "init3" ]

  let regen dir =
    let ms = Census.run ~max_nodes:expect_budget () in
    let row m =
      Json.obj
        (("object", Json.str m.Census.object_name)
        :: List.map (fun (k, v) -> (k, Json.str v)) (fields m))
    in
    Out_channel.with_open_text (file dir) (fun oc ->
        output_string oc
          (Json.to_string_pretty
             (Json.obj
                [
                  ("budget", Json.int expect_budget);
                  ("rows", Json.list (List.map row ms));
                ]));
        output_char oc '\n')

  type expect = (string * (string * string) list) list

  let load dir : expect =
    List.map
      (fun row ->
        ( to_str (member "object" row),
          List.map (fun k -> (k, to_str (member k row))) field_names ))
      (to_list (member "rows" (read_json (file dir))))

  (* Every expected row must be measured, with the same verdicts and
     winning initialisations. *)
  let check (r : Report.t) (expect : expect) (ms : Census.measurement list) =
    Report.check r "census: row set"
      (List.map fst expect = List.map (fun m -> m.Census.object_name) ms);
    List.iter
      (fun m ->
        let got = fields m in
        let failed =
          match List.assoc_opt m.Census.object_name expect with
          | None -> List.length got
          | Some want -> List.length (List.filter (fun kv -> not (List.mem kv want)) got)
        in
        Report.checks r ("census: row " ^ m.Census.object_name)
          ~attempted:(List.length got) ~failed)
      ms

  let nodes (m : Census.measurement) = snd m.two_proc + snd m.three_proc

  let setup dir () =
    let expect = load dir in
    ignore (Census.run ~max_nodes:warm_nodes ());
    Gc.compact ();
    expect

  let verdicts = 2 * List.length (Zoo.all ())

  let untraced ~dir ~seconds r =
    let expect, setup_s = Loop.setup_median (setup dir) in
    let host = Host.create () in
    let heap_since = Heap.heap_words () in
    let times =
      Loop.passes r ~seconds ~min_passes:1 (fun _ ->
          (* [Census.run] at one domain is [Census.measure] over the
             zoo in order; row by row, the host is timed between rows *)
          let ms, timed = interleaved host (Zoo.all ()) (Census.measure ~max_nodes) in
          check r expect ms;
          timed)
    in
    pass_metrics r host ~heap_since ~verdicts ~setup_s times

  (* The capped row (n-assignment, n = 2) from one initialisation: its
     node count is fixed by the budget, so ns/node compares the solver
     configurations directly. *)
  let capped r ~por ~tt =
    let spec = Zoo.find "n-assignment" in
    let init = List.hd (Census.candidate_inits ~max_candidates:16 spec) in
    let inst = Solver.of_spec ~n:2 ~depth:2 { spec with Object_spec.init } in
    let ctx = if tt then Some (Solver.Ctx.create ~n:2 ()) else None in
    let (verdict, nodes), ns =
      Loop.time (fun () -> Solver.solve_with_stats ~max_nodes ~por ~tt ?ctx inst)
    in
    Report.check r "census: capped row hits its budget"
      (match verdict with Solver.Out_of_budget _ -> true | _ -> false);
    f ns /. f nodes

  let solver_counters =
    [
      "solver.nodes"; "solver.view_intern.hits"; "solver.view_intern.lookups";
      "solver.cutoff.sleep"; "solver.tt.hits"; "solver.tt.misses";
      "solver.tt.footprint_rejects"; "solver.tt.backjumps";
    ]

  let traced ~dir ~seconds ~spans_out r =
    let expect, _ = Loop.setup_median (setup dir) in
    Ladder.common r;
    Gc.compact ();
    let specs = Zoo.all () in
    let names = Array.of_list ("census.pass" :: List.map (fun s -> "census.measure:" ^ s.Object_spec.name) specs) in
    let spans = Spans.create ~names ~domains:1 in
    let ring = spans.Spans.rings.(0) in
    let c0 = Report.counters solver_counters and g0 = Gc.quick_stat () in
    let plain = ref [] and traced = ref [] and rows = ref [] in
    ignore
      (Loop.passes r ~seconds ~min_passes:2 (fun k ->
           if k land 1 = 0 then begin
             let ms, ns = Loop.time (fun () -> Census.run ~max_nodes ()) in
             check r expect ms;
             plain := ns :: !plain
           end
           else begin
             let start = Nclock.now () in
             let ms =
               Metrics.with_hot (fun () ->
                   List.mapi
                     (fun i spec ->
                       let m, ns = Loop.time (fun () -> Census.measure ~max_nodes spec) in
                       let stop = Nclock.now () in
                       Spans.record ring ~name:(i + 1) ~start:(stop - ns) ~stop ~parent:k ~req:i;
                       rows := (m, ns) :: !rows;
                       m)
                     specs)
             in
             let stop = Nclock.now () in
             Spans.record ring ~name:0 ~start ~stop ~parent:(-1) ~req:k;
             check r expect ms;
             traced := (stop - start) :: !traced
           end));
    (* counters and GC words accumulate over untraced and traced passes
       alike: both run the same solver work, so report per pass *)
    let np = f (List.length !plain + List.length !traced) in
    let c1 = Report.counters solver_counters and g1 = Gc.quick_stat () in
    let d name = Report.delta c0 c1 name /. np in
    let ratio a b = if b = 0. then 0. else a /. b in
    let per_object = ref [] in
    List.iter
      (fun spec ->
        let name = spec.Object_spec.name in
        let mine = List.filter (fun (m, _) -> m.Census.object_name = name) !rows in
        let s = Stats.median (List.map (fun (_, ns) -> secs ns) mine) in
        let nodes = Stats.median (List.map (fun (m, _) -> f (nodes m)) mine) in
        let conclusive =
          List.for_all
            (fun (m, _) -> fst m.Census.two_proc <> Budget && fst m.three_proc <> Budget)
            mine
        in
        per_object := (name, s, nodes, conclusive) :: !per_object;
        Report.metric r ("census.row_s." ^ metric_name name) "s" ~samples:(List.length mine) s;
        Report.metric r ("census.row_nodes." ^ metric_name name) "nodes" nodes)
      specs;
    Report.metric r "solver.nodes" "nodes" (d "solver.nodes");
    let conc = List.filter (fun (_, _, _, c) -> c) !per_object in
    Report.metric r "solver.ns_per_node.conclusive" "ns"
      (1e9 *. Stats.sum (List.map (fun (_, s, _, _) -> s) conc)
      /. Stats.sum (List.map (fun (_, _, n, _) -> n) conc));
    Report.metric r "solver.view_intern.hit_rate" "ratio"
      (ratio (d "solver.view_intern.hits") (d "solver.view_intern.lookups"));
    Report.metric r "solver.cutoff.sleep" "1/pass" (d "solver.cutoff.sleep");
    let lookups = d "solver.tt.hits" +. d "solver.tt.misses" in
    Report.metric r "tt.hit_rate" "ratio" (ratio (d "solver.tt.hits") lookups);
    Report.metric r "tt.reject_rate" "ratio" (ratio (d "solver.tt.footprint_rejects") lookups);
    Report.metric r "tt.backjumps" "1/pass" (d "solver.tt.backjumps");
    Report.metric r "gc.minor_words_per_node" "words"
      ((g1.Gc.minor_words -. g0.Gc.minor_words) /. (np *. d "solver.nodes"));
    Report.metric r "trace.overhead_frac" "ratio"
      (Stats.median (List.map f !traced) /. Stats.median (List.map f !plain) -. 1.);
    (* the public-flag ablation, configurations interleaved *)
    let grid =
      List.init 3 (fun _ ->
          let base = capped r ~por:false ~tt:false in
          let por = capped r ~por:true ~tt:false in
          let full = capped r ~por:true ~tt:true in
          (base, por, full))
    in
    let med g = Stats.median (List.map g grid) in
    let base = med (fun (b, _, _) -> b) and por = med (fun (_, p, _) -> p)
    and full = med (fun (_, _, t) -> t) in
    Report.metric r "solver.ns_per_node.capped" "ns" ~samples:3 full;
    Report.metric r "solver.base_ns_per_node" "ns" ~samples:3 base;
    Report.metric r "independence.ns_per_node" "ns" ~samples:3 (por -. base);
    Report.metric r "tt.ns_per_node" "ns" ~samples:3 (full -. por);
    Spans.write spans spans_out
end

(* --- verify ---------------------------------------------------------- *)

module Verify_wl = struct
  type case = { key : string; n : int; crashes : int }

  let cases =
    [
      { key = "move"; n = 5; crashes = 0 };
      { key = "augmented-queue"; n = 5; crashes = 1 };
      { key = "n-assignment"; n = 3; crashes = 0 };
    ]

  let label c = Printf.sprintf "%s_n%d_c%d" c.key c.n c.crashes

  let index_of c =
    let rec go i = function
      | [] -> invalid_arg "Verify_wl.index_of"
      | c' :: rest -> if c' = c then i else go (i + 1) rest
    in
    go 0 cases
  let file dir = Filename.concat dir "verify.expect.json"

  let build c =
    match (Registry.find c.key).Registry.build ~n:c.n with
    | Some p -> p
    | None -> failwith ("no protocol " ^ label c)

  let verify ?pool c p = Protocol.verify ~crashes:c.crashes ?pool p

  let regen dir =
    let row c =
      let report = verify c (build c) in
      Json.obj [ ("case", Json.str (label c)); ("states", Json.int report.Protocol.states) ]
    in
    Out_channel.with_open_text (file dir) (fun oc ->
        output_string oc (Json.to_string_pretty (Json.obj [ ("cases", Json.list (List.map row cases)) ]));
        output_char oc '\n')

  let load dir =
    List.map
      (fun j -> (to_str (member "case" j), to_int (member "states" j)))
      (to_list (member "cases" (read_json (file dir))))

  (* Agreement, validity and wait-freedom hold over a complete
     exploration that visits exactly the expected number of states. *)
  let check (r : Report.t) expect c (report : Protocol.report) =
    let what = "verify: " ^ label c in
    let conds =
      [
        report.agreement; report.validity; report.wait_free; not report.truncated;
        List.assoc_opt (label c) expect = Some report.states;
      ]
    in
    Report.checks r what ~attempted:(List.length conds)
      ~failed:(List.length (List.filter not conds))

  let domains () = min 2 (Domain.recommended_domain_count ())

  type env = { expect : (string * int) list; protocols : (case * Protocol.t) list; pool : Pool.t }

  let setup dir () =
    let expect = load dir in
    let protocols = List.map (fun c -> (c, build c)) cases in
    let pool = Pool.create ~domains:(domains ()) () in
    (* warm-up: the smallest case, on the pool *)
    let c, p = List.nth protocols 2 in
    ignore (verify ~pool c p);
    Gc.compact ();
    { expect; protocols; pool }

  let setup_env dir = Loop.setup_median ~discard:(fun e -> Pool.shutdown e.pool) (setup dir)

  let pass r env ?(pool = env.pool) ?on_case () =
    List.iter
      (fun (c, p) ->
        let report, ns = Loop.time (fun () -> verify ~pool c p) in
        check r env.expect c report;
        Option.iter (fun g -> g c report ns) on_case)
      env.protocols

  let untraced ~dir ~seconds r =
    let env, setup_s = setup_env dir in
    let host = Host.create () in
    let heap_since = Heap.heap_words () in
    let times =
      Loop.passes r ~seconds ~min_passes:1 (fun _ ->
          let reports, timed =
            interleaved host env.protocols (fun (c, p) -> (c, verify ~pool:env.pool c p))
          in
          List.iter (fun (c, report) -> check r env.expect c report) reports;
          timed)
    in
    Pool.shutdown env.pool;
    pass_metrics r host ~heap_since ~verdicts:(List.length cases) ~setup_s times

  let explorer_counters =
    [
      "explorer.por.pruned"; "explorer.fused_dp.edges"; "explorer.intern.hits";
      "explorer.intern.lookups"; "intern.contention";
    ]

  let busy env = Array.fold_left (fun acc m -> acc + m.Pool.busy_ns) 0 (Pool.stats env.pool)
  let steals env = Array.fold_left (fun acc m -> acc + m.Pool.steals) 0 (Pool.stats env.pool)

  let traced ~dir ~seconds ~spans_out r =
    let env, _ = setup_env dir in
    Ladder.common r;
    Gc.compact ();
    let names = Array.of_list ("verify.pass" :: List.map (fun c -> "protocol.verify:" ^ label c) cases) in
    let spans = Spans.create ~names ~domains:1 in
    let ring = spans.Spans.rings.(0) in
    let plain = ref [] and traced = ref [] and per_case = ref [] in
    let c0 = Report.counters explorer_counters in
    let busy0 = busy env and steals0 = steals env in
    ignore
      (Loop.passes r ~seconds ~min_passes:2 (fun k ->
           if k land 1 = 0 then plain := snd (Loop.time (fun () -> pass r env ())) :: !plain
           else begin
             let start = Nclock.now () in
             Metrics.with_hot (fun () ->
                 pass r env
                   ~on_case:(fun c report ns ->
                     let stop = Nclock.now () in
                     Spans.record ring ~name:(1 + index_of c) ~start:(stop - ns) ~stop
                       ~parent:k ~req:(index_of c);
                     per_case := (c, report.Protocol.states, ns) :: !per_case)
                   ());
             let stop = Nclock.now () in
             Spans.record ring ~name:0 ~start ~stop ~parent:(-1) ~req:k;
             traced := (stop - start) :: !traced
           end));
    let np = f (List.length !plain + List.length !traced) in
    let c1 = Report.counters explorer_counters in
    let d name = Report.delta c0 c1 name /. np in
    let ratio a b = if b = 0. then 0. else a /. b in
    List.iter
      (fun c ->
        let mine = List.filter (fun (c', _, _) -> c' = c) !per_case in
        Report.metric r ("explorer.states_per_s." ^ metric_name (label c)) "1/s"
          ~samples:(List.length mine)
          (Stats.median (List.map (fun (_, states, ns) -> f states /. secs ns) mine)))
      cases;
    let pruned = d "explorer.por.pruned" in
    Report.metric r "explorer.por.pruned_share" "ratio"
      (ratio pruned (pruned +. d "explorer.fused_dp.edges"));
    Report.metric r "explorer.intern.hit_rate" "ratio"
      (ratio (d "explorer.intern.hits") (d "explorer.intern.lookups"));
    Report.metric r "intern.contention" "1/pass" (d "intern.contention");
    let wall = Stats.sum (List.map f (!plain @ !traced)) in
    Report.metric r "pool.busy_share" "ratio"
      (f (busy env - busy0) /. (wall *. f (Pool.size env.pool)));
    Report.metric r "pool.steals" "1/pass" (f (steals env - steals0) /. np);
    let two = Stats.median (List.map f !plain) in
    let one =
      let pool = Pool.create ~domains:1 () in
      let _, ns = Loop.time (fun () -> pass r env ~pool ()) in
      Pool.shutdown pool;
      f ns
    in
    Report.metric r "pool.speedup" "ratio" (one /. two);
    Report.metric r "trace.overhead_frac" "ratio"
      (Stats.median (List.map f !traced) /. two -. 1.);
    Pool.shutdown env.pool;
    Spans.write spans spans_out
end
