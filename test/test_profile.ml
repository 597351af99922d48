(* Tests for Wfs_obs.Profile spans in the event ring (Wfs_obs.Ring) and
   their integration points: structural validity of the exported Chrome
   trace (balanced B/E per tid, non-decreasing timestamps, exactly one
   thread row per domain even when spans and causal events share it),
   the no-tearing guarantee under ring wraparound, ring counters that
   match the decoded rings, pool member stats, and the invariant that
   profiling does not perturb parallel verification verdicts. *)

open Wfs_sim
open Wfs_consensus
module Json = Wfs_obs.Json
module Profile = Wfs_obs.Profile
module Ring = Wfs_obs.Ring
module Causal = Wfs_obs.Causal

(* --- trace structure helpers --- *)

let trace_events j =
  match Json.member "traceEvents" j with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing or not a list"

let str_field k ev = Option.bind (Json.member k ev) Json.to_str
let num_field k ev = Option.bind (Json.member k ev) Json.to_number
let int_field k ev = Option.bind (Json.member k ev) Json.to_int

(* Every tid that appears on a non-metadata event, with that tid's
   events in file order. *)
let events_by_tid evs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match (str_field "ph" ev, int_field "tid" ev) with
      | Some ph, Some tid when ph <> "M" ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl tid) in
          Hashtbl.replace tbl tid (ev :: prev)
      | _ -> ())
    evs;
  Hashtbl.fold (fun tid evs acc -> (tid, List.rev evs) :: acc) tbl []

let thread_name_tids evs =
  List.filter_map
    (fun ev ->
      match (str_field "ph" ev, str_field "name" ev) with
      | Some "M", Some "thread_name" -> int_field "tid" ev
      | _ -> None)
    evs

(* The structural contract: per tid, B/E balanced (depth never negative,
   zero at the end) and ts non-decreasing in file order. *)
let check_tid_structure (tid, evs) =
  let depth = ref 0 and last_ts = ref neg_infinity in
  List.iter
    (fun ev ->
      let ts =
        match num_field "ts" ev with
        | Some ts -> ts
        | None -> Alcotest.fail (Fmt.str "tid %d: event without ts" tid)
      in
      Alcotest.(check bool)
        (Fmt.str "tid %d: ts non-decreasing" tid)
        true (ts >= !last_ts);
      last_ts := ts;
      match str_field "ph" ev with
      | Some "B" -> incr depth
      | Some "E" ->
          decr depth;
          Alcotest.(check bool)
            (Fmt.str "tid %d: E never precedes its B" tid)
            true (!depth >= 0)
      | Some ("i" | "C") -> ()
      | ph ->
          Alcotest.fail
            (Fmt.str "tid %d: unexpected ph %a" tid
               Fmt.(option string)
               ph))
    evs;
  Alcotest.(check int) (Fmt.str "tid %d: B/E balanced" tid) 0 !depth

let check_trace_structure j =
  let evs = trace_events j in
  List.iter check_tid_structure (events_by_tid evs)

(* --- disabled path --- *)

let test_disabled_noop () =
  Alcotest.(check bool) "off by default" false (Profile.enabled ());
  let r =
    Profile.span "ignored"
      ~args:(fun () -> Alcotest.fail "args thunk forced while disabled")
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "span passes result through" 42 r;
  Profile.begin_ "ignored";
  Profile.end_ ();
  Profile.instant "ignored";
  Profile.counter "ignored" [ ("v", 1.0) ];
  Alcotest.(check int) "nothing recorded" 0 (Ring.recorded ())

let test_span_propagates_exceptions () =
  Ring.enable ();
  (match Profile.span "boom" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  (* the span closed on the way out: the trace stays balanced *)
  let j = Ring.to_json () in
  Ring.disable ();
  Ring.reset ();
  check_trace_structure j

(* --- multi-domain export --- *)

let test_multi_domain_trace () =
  Ring.enable ();
  let work label =
    Profile.span "outer" ~cat:"test"
      ~args:(fun () -> [ ("who", Json.str label) ])
      (fun () ->
        for i = 1 to 5 do
          Profile.span "inner" (fun () -> ignore (Sys.opaque_identity i))
        done;
        Profile.instant "mark")
  in
  work "main";
  let ds = Array.init 2 (fun i -> Domain.spawn (fun () -> work (Fmt.str "d%d" i))) in
  Array.iter Domain.join ds;
  Ring.disable ();
  let j = Ring.to_json () in
  Ring.reset ();
  (* serialized form is valid JSON and survives a round trip *)
  let j = Json.of_string (Json.to_string_pretty j) in
  let evs = trace_events j in
  let tids = List.sort_uniq compare (thread_name_tids evs) in
  Alcotest.(check bool)
    "one thread row per domain (>= 3)" true
    (List.length tids >= 3);
  Alcotest.(check int)
    "no duplicate thread rows" (List.length tids)
    (List.length (thread_name_tids evs));
  let by_tid = events_by_tid evs in
  (* every event tid has a thread_name row *)
  List.iter
    (fun (tid, _) ->
      Alcotest.(check bool)
        (Fmt.str "tid %d has a thread row" tid)
        true (List.mem tid tids))
    by_tid;
  Alcotest.(check bool)
    "events on >= 3 tids" true
    (List.length by_tid >= 3);
  List.iter check_tid_structure by_tid;
  (* instants made it through with their phase *)
  let instants =
    List.filter (fun ev -> str_field "ph" ev = Some "i") evs
  in
  Alcotest.(check int) "one instant per domain" 3 (List.length instants)

(* --- ring wraparound never tears a span (qcheck) --- *)

(* A script is a list of small commands run against a capacity-8 ring:
   0 = leaf span, 1 = instant, 2 = nested span pair, 3 = counter
   sample.  Any script long enough to wrap must still export balanced,
   monotone events — wraparound drops whole spans, never halves. *)
let run_script script =
  List.iter
    (fun cmd ->
      match cmd mod 4 with
      | 0 -> Profile.span "leaf" (fun () -> ())
      | 1 -> Profile.instant "i"
      | 2 ->
          Profile.span "outer" (fun () ->
              Profile.span "inner" (fun () -> ()))
      | _ -> Profile.counter "c" [ ("v", float_of_int cmd) ])
    script

let prop_wraparound_balanced =
  QCheck2.Test.make ~name:"ring wraparound never tears a span" ~count:100
    QCheck2.Gen.(list_size (int_range 20 60) (int_range 0 3))
    (fun script ->
      Ring.enable ~ring_capacity:8 ();
      run_script script;
      Ring.disable ();
      let j = Ring.to_json () in
      let dropped = Ring.dropped () in
      Ring.reset ();
      (* >= 20 commands into 8 slots: the ring must have wrapped *)
      if dropped = 0 then
        QCheck2.Test.fail_report "expected wraparound drops";
      check_trace_structure j;
      true)

(* --- spans and causal events share one ring --- *)

(* One traced invocation inside a span, on the calling domain. *)
let traced_op ~obj =
  Profile.span "op" ~cat:"test" (fun () ->
      let tr = Causal.issue () in
      Causal.invoke ~obj ~trace:tr ~pid:0;
      Causal.help ~obj ~helper:(-1) ~helped:tr ~pos:0;
      Causal.complete ~obj ~trace:tr ~pos:0 ~own_steps:1 ~help_rounds:0)

(* Spans and causal events recorded by one domain render as ONE thread
   row: a single thread_name per tid, with B/E and X on it. *)
let test_one_thread_row_per_tid () =
  Ring.enable ~sample:1 ();
  Causal.meta ~obj:"toy" ~n:1 ~bound:10;
  traced_op ~obj:"toy";
  Domain.join (Domain.spawn (fun () -> traced_op ~obj:"toy"));
  Ring.disable ();
  let j = Json.of_string (Json.to_string (Ring.to_json ())) in
  Ring.reset ();
  let evs = trace_events j in
  let tids = thread_name_tids evs in
  Alcotest.(check int) "two domains, two rows" 2 (List.length tids);
  Alcotest.(check int)
    "exactly one thread_name per tid" (List.length tids)
    (List.length (List.sort_uniq compare tids));
  List.iter
    (fun ph ->
      List.iter
        (fun tid ->
          Alcotest.(check bool)
            (Fmt.str "tid %d has a %s event" tid ph)
            true
            (List.exists
               (fun ev -> str_field "ph" ev = Some ph && int_field "tid" ev = Some tid)
               evs))
        tids)
    [ "B"; "E"; "X"; "s" ]

(* --- counters match the decoded rings under wraparound --- *)

let test_wraparound_counters () =
  Ring.enable ~ring_capacity:8 ~sample:1 ();
  (* per call: 1 span + 3 causal events (one of them a help edge) *)
  let work calls =
    for _ = 1 to calls do
      traced_op ~obj:"wrap"
    done
  in
  work 5;
  Domain.join (Domain.spawn (fun () -> work 1));
  Ring.disable ();
  let _, rows = Ring.snapshot () in
  let rows = List.filter (fun r -> r.Ring.events <> []) rows in
  let recorded = Ring.recorded () and dropped = Ring.dropped () in
  let helps = Ring.help_edges () in
  Ring.reset ();
  (match rows with
  | [ main; spawned ] ->
      Alcotest.(check int) "main: full ring" 8 (List.length main.Ring.events);
      Alcotest.(check int) "main: 20 pushed, 12 dropped" 12 main.Ring.dropped;
      Alcotest.(check int) "spawned: 4 held" 4 (List.length spawned.Ring.events);
      Alcotest.(check int) "spawned: none dropped" 0 spawned.Ring.dropped
  | rs -> Alcotest.failf "expected 2 rows, got %d" (List.length rs));
  let events = List.concat_map (fun r -> r.Ring.events) rows in
  Alcotest.(check int) "recorded = decoded" (List.length events) recorded;
  Alcotest.(check int)
    "dropped = sum of rows" dropped
    (List.fold_left (fun n r -> n + r.Ring.dropped) 0 rows);
  Alcotest.(check int)
    "help edges = decoded Help slots"
    (List.length (List.filter (fun e -> e.Ring.kind = Ring.Help) events))
    helps;
  Alcotest.(check bool)
    "spans and causal events both survive" true
    (List.exists (fun e -> e.Ring.kind = Ring.Span) events
    && List.exists (fun e -> e.Ring.kind = Ring.Complete) events)

(* --- pool member stats --- *)

let test_pool_member_stats () =
  Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Pool.parallel_map pool
          (fun i ->
            ignore (Sys.opaque_identity (i * i));
            i)
          (Array.init 64 Fun.id)
      in
      Alcotest.(check int) "batch ran" 64 (Array.length out);
      let stats = Pool.stats pool in
      Alcotest.(check int) "one slot per member" 2 (Array.length stats);
      let total =
        Array.fold_left (fun acc s -> acc + s.Pool.jobs_run) 0 stats
      in
      Alcotest.(check int) "every job counted exactly once" 64 total;
      Array.iter
        (fun s ->
          Alcotest.(check bool) "busy_ns non-negative" true (s.Pool.busy_ns >= 0);
          Alcotest.(check bool) "idle_ns non-negative" true (s.Pool.idle_ns >= 0);
          Alcotest.(check bool)
            "steal counters non-negative" true
            (s.Pool.steals >= 0 && s.Pool.steal_failures >= 0))
        stats)

(* --- profiling does not perturb parallel verdicts --- *)

let test_profiled_parallel_verdict_identical () =
  let p = Cas_consensus.protocol ~n:3 () in
  let baseline = Fmt.str "%a" Protocol.pp_report (Protocol.verify p) in
  let profiled =
    Ring.enable ();
    Fun.protect
      ~finally:(fun () ->
        Ring.disable ();
        Ring.reset ())
      (fun () ->
        Pool.with_pool ~domains:2 (fun pool ->
            Fmt.str "%a" Protocol.pp_report (Protocol.verify ~pool p)))
  in
  Alcotest.(check string)
    "parallel + profiling verdict byte-identical to sequential" baseline
    profiled

let suite =
  [
    ( "obs.profile",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "exceptions close spans" `Quick
          test_span_propagates_exceptions;
        Alcotest.test_case "multi-domain trace structure" `Quick
          test_multi_domain_trace;
        Alcotest.test_case "pool member stats" `Quick test_pool_member_stats;
        Alcotest.test_case "profiled parallel verdict identical" `Quick
          test_profiled_parallel_verdict_identical;
        Alcotest.test_case "one thread row per tid" `Quick
          test_one_thread_row_per_tid;
        Alcotest.test_case "wraparound counters match the rings" `Quick
          test_wraparound_counters;
        QCheck_alcotest.to_alcotest prop_wraparound_balanced;
      ] );
  ]
