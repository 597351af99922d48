(* The serving workloads: one spec behind a [Service] handle, driven in
   a closed loop by [clients] domains, each issuing its next operation
   when the previous one returns.  A run is a sequence of passes; a
   pass issues a fixed number of operations per client, then checks
   them by differential replay. *)

open Wfs
module Service = Runtime.Service
module Metrics = Obs.Metrics

type config = {
  clients : int;
  ops_per_pass : int;  (* per client *)
  make_spec : unit -> Object_spec.t;
  stream : Object_spec.t -> seed:int -> pid:int -> unit -> Op.t;
      (* client [pid]'s seeded operations *)
  keys_bound : (Value.t -> int) option;  (* a map state's bound keys *)
}

(* Client [pid]'s generator, seeded as [wfs load] seeds it. *)
let rng ~seed ~pid = Random.State.make [| 0x5eed; seed; pid |]

let uniform rng menu =
  let menu = Array.of_list menu in
  fun () -> menu.(Random.State.int rng (Array.length menu))

(* The counter's operations drawn uniformly from its menu
   (incr/decr/read), the stream [wfs load] issues for the same seed. *)
let counter =
  {
    clients = 2;
    ops_per_pass = 100_000;
    make_spec = (fun () -> Collections.counter ());
    stream = (fun spec ~seed ~pid -> uniform (rng ~seed ~pid) spec.Object_spec.menu);
    keys_bound = None;
  }

let kv_keys = List.init 64 Value.int
let kv_values = List.map Value.int [ 0; 1; 2 ]

(* Read-heavy, with the read share of YCSB core workload B: 95% of
   operations are a [get] drawn uniformly from the menu's gets, and 5% a
   write drawn uniformly from its [put]/[del] entries.  The menu has
   three puts (one per value) per del, so about 3/4 of the 64 keys are
   bound in the steady state. *)
let read_share = 0.95

let kvmap =
  {
    clients = 1;
    ops_per_pass = 100_000;
    make_spec =
      (fun () ->
        Collections.kv_map ~keys:kv_keys ~values:kv_values
          ~initial:(List.map (fun k -> (k, Value.int 0)) kv_keys)
          ());
    stream =
      (fun spec ~seed ~pid ->
        let gets, writes =
          List.partition (fun op -> Op.name op = "get") spec.Object_spec.menu
        in
        let rng = rng ~seed ~pid in
        let get = uniform rng gets and write = uniform rng writes in
        fun () -> if Random.State.float rng 1. < read_share then get () else write ());
    keys_bound = Some (fun state -> List.length (Value.as_list state));
  }

type client = {
  next : unit -> Op.t;
  ops : Op.t array;
  res : Value.t array;
  pos : int array;
  lat : int array;
}

type t = {
  cfg : config;
  spec : Object_spec.t;
  h : Service.handle;
  cl : client array;
  slot : int array;  (* position - base -> client * ops_per_pass + index *)
  sorted : int array;  (* latency scratch *)
  mutable base : int;  (* positions threaded before this pass *)
  mutable state : Value.t;  (* the spec state replayed up to [base] *)
}

type pass = {
  apply_ns : int;  (* clients' wall time *)
  gc : Gc.stat * Gc.stat;  (* around the clients *)
  verdict_ns : int;  (* apply plus the differential check *)
  p50 : int;
  p99 : int;
  p999 : int;
  lmax : int;
}

let create cfg ~seed =
  let spec = cfg.make_spec () in
  let n = cfg.ops_per_pass in
  {
    cfg;
    spec;
    h = Service.make_handle ~n:cfg.clients spec;
    cl =
      Array.init cfg.clients (fun pid ->
          {
            next = cfg.stream spec ~seed ~pid;
            ops = Array.make n Value.unit;
            res = Array.make n Value.unit;
            pos = Array.make n 0;
            lat = Array.make n 0;
          });
    slot = Array.make (cfg.clients * n) (-1);
    sorted = Array.make (cfg.clients * n) 0;
    base = 0;
    state = spec.Object_spec.init;
  }

(* The next stretch of every client's seeded stream. *)
let refill t = Array.iter (fun c -> Array.iteri (fun i _ -> c.ops.(i) <- c.next ()) c.ops) t.cl

(* What a traced pass records: one span per [apply_pos] into the
   client's own ring, and the retained window, sampled by client 0
   every 128 operations. *)
type tracing = { spans : Spans.t; mutable pass_id : int; mutable retained_max : int }

let span_names = [| "serve.pass"; "service.apply_pos"; "check.replay" |]

(* One closed-loop client; [apply_pos] is timed by the benchmark's own
   clock. *)
let run_client ?tracing t pid =
  let c = t.cl.(pid) and h = t.h in
  for i = 0 to t.cfg.ops_per_pass - 1 do
    let t0 = Nclock.now () in
    let r, p = h.Service.apply_pos ~pid c.ops.(i) in
    let t1 = Nclock.now () in
    c.res.(i) <- r;
    c.pos.(i) <- p;
    c.lat.(i) <- t1 - t0;
    match tracing with
    | None -> ()
    | Some tr ->
        Spans.record tr.spans.Spans.rings.(pid + 1) ~name:1 ~start:t0 ~stop:t1
          ~parent:tr.pass_id ~req:((pid * t.cfg.ops_per_pass) + i);
        if pid = 0 && i land 127 = 0 then tr.retained_max <- max tr.retained_max (h.retained ())
  done

(* The differential check of one pass: positions must be exactly
   [base .. base+total-1], and replaying the operations in position
   order through [Object_spec.apply] must reproduce every recorded
   result.  One check per operation plus one for the position set. *)
let check t (r : Report.t) =
  let n = t.cfg.ops_per_pass in
  let total = t.cfg.clients * n in
  Array.fill t.slot 0 total (-1);
  let positions_ok = ref (t.h.length () = t.base + total) in
  Array.iteri
    (fun pid c ->
      Array.iteri
        (fun i p ->
          let k = p - t.base in
          if k < 0 || k >= total || t.slot.(k) >= 0 then positions_ok := false
          else t.slot.(k) <- (pid * n) + i)
        c.pos)
    t.cl;
  let mismatches = ref 0 and state = ref t.state in
  for k = 0 to total - 1 do
    let s = t.slot.(k) in
    if s < 0 then incr mismatches
    else begin
      let c = t.cl.(s / n) and i = s mod n in
      let state', expected = Object_spec.apply t.spec !state c.ops.(i) in
      state := state';
      if not (Value.equal c.res.(i) expected) then incr mismatches
    end
  done;
  Report.checks r "serve: position set" ~attempted:1 ~failed:(if !positions_ok then 0 else 1);
  Report.checks r "serve: differential replay" ~attempted:total ~failed:!mismatches;
  t.state <- !state;
  t.base <- t.base + total

let latency_quantiles t =
  let n = t.cfg.ops_per_pass in
  Array.iteri (fun pid c -> Array.blit c.lat 0 t.sorted (pid * n) n) t.cl;
  Array.sort Int.compare t.sorted;
  let q = Stats.quantile_sorted t.sorted in
  (q 0.50, q 0.99, q 0.999, t.sorted.(Array.length t.sorted - 1))

(* Run [f pid] for pids [0..n-1] at once: pid 0 on the calling domain
   and one fresh domain per other pid, released together.  No extra
   domain idles in a join, so a stop-the-world collection involves only
   the running domains. *)
let on_domains n f =
  let barrier = Wfs.Runtime.Primitives.Barrier.make n in
  let go pid () =
    Wfs.Runtime.Primitives.Barrier.wait barrier;
    f pid
  in
  let others = List.init (n - 1) (fun i -> Domain.spawn (go (i + 1))) in
  go 0 ();
  List.iter Domain.join others

(* The next stretch of every client's stream, issued by the clients. *)
let issue ?tracing t =
  refill t;
  on_domains t.cfg.clients (run_client ?tracing t)

let pass ?tracing t r =
  let g0 = Gc.quick_stat () in
  let t0 = Nclock.now () in
  issue ?tracing t;
  let t1 = Nclock.now () in
  let g1 = Gc.quick_stat () in
  check t r;
  let t2 = Nclock.now () in
  Option.iter
    (fun tr ->
      let main = tr.spans.Spans.rings.(0) in
      Spans.record main ~name:0 ~start:t0 ~stop:t2 ~parent:(-1) ~req:tr.pass_id;
      Spans.record main ~name:2 ~start:t1 ~stop:t2 ~parent:tr.pass_id ~req:tr.pass_id)
    tracing;
  let p50, p99, p999, lmax = latency_quantiles t in
  { apply_ns = t1 - t0; gc = (g0, g1); verdict_ns = t2 - t0; p50; p99; p999; lmax }

let ops_per_s t p =
  float_of_int (t.cfg.clients * t.cfg.ops_per_pass) /. (float_of_int p.apply_ns *. 1e-9)

(* Set-up: a fresh handle, one checked warm-up pass, then [Gc.compact]
   so no heap state from set-up leaks into the timed passes. *)
let setup cfg ~seed r () =
  let t = create cfg ~seed in
  ignore (pass t r);
  Gc.compact ();
  t

let f = float_of_int
let fmed f_of passes = Stats.median (List.map f_of passes)

(* Each pass is normalised by the host's slowdown beside it. *)
let untraced cfg ~seed ~seconds r =
  let t, setup_s = Loop.setup_median (setup cfg ~seed r) in
  let host = Host.create () and heap = Heap.retained () in
  let passes =
    Loop.passes r ~seconds ~min_passes:1
      ~between:(fun () -> Heap.sample heap t.h)
      (fun _ ->
        let p, _, slowdown = Host.beside host (fun () -> pass t r) in
        (p, slowdown))
  in
  let np = List.length passes in
  let ops = t.cfg.clients * t.cfg.ops_per_pass in
  (* times are divided by the slowdown, rates multiplied *)
  let both ?samples name unit v scale =
    Report.normalised r ?samples name unit
      ~raw:(fmed (fun (p, _) -> v p) passes)
      (fmed (fun (p, s) -> v p *. scale s) passes)
  in
  let inverse s = 1. /. s in
  Report.host_line host;
  both "ops_per_s" "1/s" ~samples:np (ops_per_s t) Fun.id;
  both "lat_p99_ns" "ns" ~samples:(np * ops) (fun p -> f p.p99) inverse;
  both "time_to_verdict_s" "s" ~samples:np (fun p -> f p.verdict_ns *. 1e-9) inverse;
  Report.normalised r "setup_s" "s" ~samples:Loop.setups ~raw:setup_s
    (setup_s /. Host.slowdown host);
  Report.metric r "peak_heap_mb" "MiB" ~samples:(np + 1) (Heap.retained_mb heap)

(* Counters read around the traced passes ([Metrics] hot). *)
let hist_sum_count name =
  List.assoc_opt name (Metrics.dump ())
  |> function
  | Some (Metrics.D_histogram { d_sum; d_count; _ }) -> (d_sum, d_count)
  | _ -> (0, 0)

let traced cfg ~seed ~seconds ~spans_out r =
  let t, _ = Loop.setup_median (setup cfg ~seed r) in
  Ladder.common r;
  let probe = create cfg ~seed:(seed + 1) in
  refill probe;
  Ladder.serving r ~spec:t.spec ~live:t.state ~ops:probe.cl.(0).ops;
  Gc.compact ();
  let tracing =
    {
      spans = Spans.create ~names:span_names ~domains:(cfg.clients + 1);
      pass_id = 0;
      retained_max = 0;
    }
  in
  (* hot-gated: only the traced passes move them *)
  let names =
    [ "consensus_rt.one_shot.retries"; "universal_rt.wait_free.help_rounds";
      "universal_rt.wait_free.snapshots" ]
  and batch = "universal_rt.wait_free.batch_size" in
  let c0 = Report.counters names and b0 = hist_sum_count batch in
  (* even passes untraced, odd passes traced with [Metrics] hot *)
  let all =
    Loop.passes r ~seconds ~min_passes:4 (fun k ->
        if k land 1 = 0 then (pass t r, None)
        else begin
          tracing.pass_id <- k;
          let tk0 = t.h.tickets () in
          let p = Metrics.with_hot (fun () -> pass ~tracing t r) in
          (p, Some (t.h.tickets () - tk0))
        end)
  in
  let plain = List.filter_map (fun (p, tk) -> if tk = None then Some p else None) all in
  let traced_passes = List.filter_map (fun (p, tk) -> Option.map (fun tk -> (p, tk)) tk) all in
  let c1 = Report.counters names and b1 = hist_sum_count batch in
  let d = Report.delta c0 c1 in
  let pass_ops = cfg.clients * cfg.ops_per_pass in
  let ops = f (pass_ops * List.length traced_passes) in
  let tickets = List.fold_left (fun acc (_, tk) -> acc + tk) 0 traced_passes in
  let nplain = List.length plain in
  Report.metric r "consensus_rt.retries_per_kop" "1/kop" (d "consensus_rt.one_shot.retries" *. 1000. /. ops);
  Report.metric r "universal_rt.help_rounds_per_op" "rounds" (d "universal_rt.wait_free.help_rounds" *. 64. /. ops);
  Report.metric r "universal_rt.batch_size_mean" "ops"
    (let s = fst b1 - fst b0 and c = snd b1 - snd b0 in
     if c = 0 then 0. else f s /. f c);
  Report.metric r "universal_rt.announce_share" "ratio" ((f tickets -. ops) /. ops);
  Report.metric r "universal_rt.snapshots_per_kop" "1/kop" (d "universal_rt.wait_free.snapshots" *. 1000. /. ops);
  Report.metric r "universal_rt.retained_max" "nodes" (f tracing.retained_max);
  Option.iter
    (fun bound -> Report.metric r "spec.kv_keys_bound" "keys" (f (bound t.state)))
    cfg.keys_bound;
  (* GC work of the clients alone, from the untraced passes *)
  let gc_per_pass field = fmed (fun p -> field (snd p.gc) -. field (fst p.gc)) plain in
  Report.metric r "gc.minor_words_per_op" "words" ~samples:nplain
    (gc_per_pass (fun g -> g.Gc.minor_words) /. f pass_ops);
  Report.metric r "gc.minor_collections" "1/pass" ~samples:nplain
    (gc_per_pass (fun g -> f g.Gc.minor_collections));
  Report.metric r "gc.major_collections" "1/pass" ~samples:nplain
    (gc_per_pass (fun g -> f g.Gc.major_collections));
  Report.metric r "load.lat_p50_ns" "ns" ~samples:(nplain * pass_ops)
    (fmed (fun p -> f p.p50) plain);
  Report.metric r "load.lat_p999_ns" "ns" ~samples:(nplain * pass_ops)
    (fmed (fun p -> f p.p999) plain);
  Report.metric r "load.lat_max_ns" "ns" ~samples:(nplain * pass_ops)
    (Stats.maximum (List.map (fun p -> f p.lmax) plain));
  let traced_rate = fmed (fun (p, _) -> ops_per_s t p) traced_passes in
  let plain_rate = fmed (ops_per_s t) plain in
  Report.metric r "trace.overhead_frac" "ratio" ~samples:(List.length traced_passes)
    (1. -. (traced_rate /. plain_rate));
  Spans.write tracing.spans spans_out
