(* Differential tests for the engines: the interned fused-DP explorer
   must be observationally identical to the naive reference explorer
   ([Naive_explorer]) on every protocol in the registry, and the solver
   must reproduce fixed verdicts, strategies and node counts on the
   canonical instances.  Also: the symmetry quotient agrees with the
   full graph on every verdict, and the interner's properties hold
   under qcheck. *)

open Wfs_spec
open Wfs_sim
open Wfs_consensus
open Wfs_hierarchy

let value = Alcotest.testable Value.pp Value.equal

(* --- explorer: engine vs naive reference --- *)

(* Terminals are reported as a set; compare them order-insensitively
   through their canonical encodings. *)
let terminal_encodings (stats : Explorer.stats) =
  List.sort Value.compare
    (List.map
       (fun (t : Explorer.terminal) ->
         Value.pair
           (Value.list
              (Array.to_list (Array.map Value.of_option t.Explorer.decisions)))
           (Value.pair
              (Value.int t.Explorer.who_stepped)
              (Value.int t.Explorer.who_crashed)))
       stats.Explorer.terminals)

let truncation_str = function
  | None -> "none"
  | Some Explorer.Budget_states -> "states"
  | Some Explorer.Budget_depth -> "depth"

let check_stats_equal name (a : Explorer.stats) (b : Explorer.stats) =
  Alcotest.(check int)
    (name ^ ": states") a.Explorer.states b.Explorer.states;
  Alcotest.(check bool)
    (name ^ ": cyclic") a.Explorer.cyclic b.Explorer.cyclic;
  Alcotest.(check (option (pair int string)))
    (name ^ ": stuck") a.Explorer.stuck b.Explorer.stuck;
  Alcotest.(check bool)
    (name ^ ": truncated") a.Explorer.truncated b.Explorer.truncated;
  Alcotest.(check string)
    (name ^ ": truncation cause")
    (truncation_str a.Explorer.truncation)
    (truncation_str b.Explorer.truncation);
  Alcotest.(check bool)
    (name ^ ": wait_free")
    (Explorer.wait_free a) (Explorer.wait_free b);
  Alcotest.(check (option (array int)))
    (name ^ ": step_bounds") a.Explorer.step_bounds b.Explorer.step_bounds;
  Alcotest.(check (list value))
    (name ^ ": terminals")
    (terminal_encodings a) (terminal_encodings b);
  Alcotest.(check (list (pair int value)))
    (name ^ ": invalid_decisions")
    a.Explorer.invalid_decisions b.Explorer.invalid_decisions

(* Every sound registry protocol, at every size it supports in {2, 3},
   fully explored and under each budget kind: the budgets exercise the
   engines' truncation-order agreement, not just the happy path. *)
let registry_protocols () =
  List.concat_map
    (fun (e : Registry.entry) ->
      List.filter_map
        (fun n ->
          Option.map
            (fun p -> (Fmt.str "%s n=%d" e.Registry.key n, p))
            (e.Registry.build ~n))
        [ 2; 3 ])
    Registry.entries

let test_explorer_differential () =
  List.iter
    (fun (name, (p : Protocol.t)) ->
      let cfg = p.Protocol.config in
      check_stats_equal name
        (Naive_explorer.explore cfg)
        (Explorer.explore cfg);
      check_stats_equal
        (name ^ " [max_states=40]")
        (Naive_explorer.explore ~max_states:40 cfg)
        (Explorer.explore ~max_states:40 cfg);
      check_stats_equal
        (name ^ " [max_depth=3]")
        (Naive_explorer.explore ~max_depth:3 cfg)
        (Explorer.explore ~max_depth:3 cfg))
    (registry_protocols ())

(* [Protocol.verify]'s report, re-derived from the reference stats. *)
let test_verify_differential () =
  List.iter
    (fun (name, p) ->
      let o = Naive_explorer.explore p.Protocol.config in
      let r = Protocol.verify p in
      let decided (t : Explorer.terminal) =
        List.filter_map Fun.id (Array.to_list t.Explorer.decisions)
      in
      let agrees t =
        match decided t with
        | [] -> true
        | d :: rest -> List.for_all (Value.equal d) rest
      in
      Alcotest.(check bool)
        (name ^ ": agreement")
        (List.for_all agrees o.Explorer.terminals)
        r.Protocol.agreement;
      Alcotest.(check bool)
        (name ^ ": validity")
        (o.Explorer.invalid_decisions = [])
        r.Protocol.validity;
      Alcotest.(check bool)
        (name ^ ": wait_free") (Explorer.wait_free o) r.Protocol.wait_free;
      Alcotest.(check int)
        (name ^ ": states") o.Explorer.states r.Protocol.states;
      Alcotest.(check (list value))
        (name ^ ": decisions_seen")
        (List.sort_uniq Value.compare
           (List.concat_map decided o.Explorer.terminals))
        r.Protocol.decisions_seen)
    (registry_protocols ())

(* --- symmetry quotient vs full graph ---

   Only legal for identical pid-independent programs; verdicts must
   agree while the quotient explores no more states than the full
   graph. *)

(* Everybody races a test-and-set and decides from the response alone. *)
let symmetric_tas_config n =
  let proc pid =
    Process.make ~pid ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"t" Registers.tas (fun res ->
                Process.at 1 ~data:res)
        | 1 ->
            Process.decide
              (if Value.equal (Process.data local) (Value.int 0) then
                 Value.int 0
               else Value.int 1)
        | _ -> assert false)
  in
  {
    Explorer.procs = Array.init n proc;
    env = Env.make [ ("t", Zoo.test_and_set ()) ];
  }

(* Everybody spins on a register nobody writes: a symmetric cycle. *)
let symmetric_spin_config n =
  let proc pid =
    Process.make ~pid ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"r" Registers.read (fun res ->
                if Value.is_bottom res then Process.at 0
                else Process.at 1 ~data:res)
        | 1 -> Process.decide (Process.data local)
        | _ -> assert false)
  in
  {
    Explorer.procs = Array.init n proc;
    env =
      Env.make
        [ ("r", Registers.atomic ~name:"r" ~init:Value.bottom [ Value.int 1 ]) ];
  }

let check_symmetry_agrees name config =
  let full = Explorer.explore config in
  let quot = Explorer.explore ~symmetry:true config in
  Alcotest.(check bool)
    (name ^ ": cyclic agrees") full.Explorer.cyclic quot.Explorer.cyclic;
  Alcotest.(check bool)
    (name ^ ": wait_free agrees")
    (Explorer.wait_free full) (Explorer.wait_free quot);
  (* Orbit collapsing permutes pid labels along quotient paths, so the
     per-process bounds are a sound over-approximation, not an exact
     match: both must exist (or not) together, and the quotient's worst
     case must dominate the true worst case. *)
  (match (full.Explorer.step_bounds, quot.Explorer.step_bounds) with
  | None, None -> ()
  | Some fb, Some qb ->
      let max_of = Array.fold_left max 0 in
      Alcotest.(check bool)
        (name ^ ": quotient bounds dominate")
        true
        (max_of qb >= max_of fb)
  | Some _, None | None, Some _ ->
      Alcotest.fail (name ^ ": step_bounds presence disagrees"));
  Alcotest.(check bool)
    (name ^ ": quotient no larger") true
    (quot.Explorer.states <= full.Explorer.states);
  (full.Explorer.states, quot.Explorer.states)

let test_symmetry () =
  List.iter
    (fun n ->
      let full, quot =
        check_symmetry_agrees
          (Fmt.str "sym-tas n=%d" n)
          (symmetric_tas_config n)
      in
      if n >= 3 then
        Alcotest.(check bool)
          (Fmt.str "sym-tas n=%d: quotient strictly smaller" n)
          true (quot < full);
      ignore
        (check_symmetry_agrees
           (Fmt.str "sym-spin n=%d" n)
           (symmetric_spin_config n)))
    [ 2; 3 ]

(* --- symmetry quotient combined with a crash budget ---

   Crash transitions are symmetric too (any orbit member may crash), so
   the quotient remains sound under fault injection.  The reference
   explorer has no symmetry support, so the comparison is two-legged:
   engine = reference exactly on the full crash-augmented graph, and
   the crash-augmented quotient agrees with that graph on every
   verdict. *)

let test_symmetry_with_crashes () =
  List.iter
    (fun n ->
      List.iter
        (fun (cname, config) ->
          let name = Fmt.str "%s n=%d crashes=1" cname n in
          let full = Explorer.explore ~crashes:1 config in
          (* engine vs reference on the full crash-augmented graph *)
          check_stats_equal
            (name ^ " [full]")
            (Naive_explorer.explore ~crashes:1 config)
            full;
          (* crash-augmented quotient vs the full graph *)
          let quot = Explorer.explore ~symmetry:true ~crashes:1 config in
          Alcotest.(check bool)
            (name ^ ": cyclic agrees") full.Explorer.cyclic
            quot.Explorer.cyclic;
          Alcotest.(check bool)
            (name ^ ": wait_free agrees")
            (Explorer.wait_free full) (Explorer.wait_free quot);
          Alcotest.(check bool)
            (name ^ ": quotient no larger") true
            (quot.Explorer.states <= full.Explorer.states);
          (match (full.Explorer.step_bounds, quot.Explorer.step_bounds) with
          | None, None -> ()
          | Some fb, Some qb ->
              let max_of = Array.fold_left max 0 in
              Alcotest.(check bool)
                (name ^ ": quotient bounds dominate")
                true
                (max_of qb >= max_of fb)
          | Some _, None | None, Some _ ->
              Alcotest.fail (name ^ ": step_bounds presence disagrees"));
          if n >= 3 then
            Alcotest.(check bool)
              (name ^ ": quotient strictly smaller") true
              (quot.Explorer.states < full.Explorer.states))
        [
          ("sym-tas", symmetric_tas_config n);
          ("sym-spin", symmetric_spin_config n);
        ])
    [ 2; 3 ]

(* --- solver: fixed verdicts, strategies and node counts --- *)

let action_str a = Fmt.str "%a" Solver.pp_action a

let assignment_sig (a : Solver.assignment) =
  Fmt.str "P%d %a -> %s" a.Solver.pid Value.pp a.Solver.view
    (action_str a.Solver.chosen)

let verdict_sig = function
  | Solver.Unsolvable -> [ "UNSOLVABLE" ]
  | Solver.Out_of_budget { nodes } -> [ Fmt.str "BUDGET %d" nodes ]
  | Solver.Solvable assignments ->
      "SOLVABLE" :: List.sort String.compare (List.map assignment_sig assignments)

let register () =
  Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]

(* pre-loaded, as in Theorem 9's protocol *)
let queue () =
  Queues.fifo ~name:"q"
    ~initial:[ Value.str "a"; Value.str "b" ]
    ~items:[ Value.str "a"; Value.str "b" ]
    ()

(* The canonical instances and their fixed oracle: the verdict and
   synthesized strategy, identical under every (por, tt) setting, and
   the node count under each.  A change to the search that moves a
   count must update it here deliberately. *)
let solver_baseline =
  [
    (* Theorem 2: registers cannot solve 2-consensus. *)
    ( "T2 register n=2 d=2",
      (fun () -> Solver.of_spec ~n:2 ~depth:2 (register ())),
      [ "UNSOLVABLE" ],
      [ ((true, true), 2779); ((true, false), 4212);
        ((false, true), 7573); ((false, false), 10021) ] );
    (* Theorem 9: a pre-loaded queue solves 2-consensus. *)
    ( "T9 queue n=2 d=2",
      (fun () -> Solver.of_spec ~n:2 ~depth:2 (queue ())),
      [
        "SOLVABLE";
        {|P0 ["a"] -> q.deq|};
        {|P0 ["b"; "a"] -> decide P0|};
        {|P0 ["b"] -> q.deq|};
        {|P0 ["empty"; "a"] -> decide P0|};
        {|P0 ["empty"; "b"] -> decide P0|};
        {|P0 ["empty"; "empty"] -> decide P1|};
        {|P0 ["empty"] -> q.deq|};
        {|P0 [] -> q.deq|};
        {|P1 ["a"] -> q.deq|};
        {|P1 ["b"; "a"] -> decide P1|};
        {|P1 ["b"] -> q.deq|};
        {|P1 ["empty"; "a"] -> decide P0|};
        {|P1 ["empty"; "b"] -> decide P0|};
        {|P1 ["empty"; "empty"] -> decide P0|};
        {|P1 ["empty"] -> q.deq|};
        {|P1 [] -> q.deq|};
      ],
      [ ((true, true), 41); ((true, false), 41);
        ((false, true), 76); ((false, false), 76) ] );
    (* Theorem 11: queues cannot solve 3-consensus. *)
    ( "T11 queue n=3 d=1",
      (fun () -> Solver.of_spec ~n:3 ~depth:1 (queue ())),
      [ "UNSOLVABLE" ],
      [ ((true, true), 345); ((true, false), 934);
        ((false, true), 4146); ((false, false), 4394) ] );
  ]

let check_solver_differential (name, inst, expected_sig, nodes) =
  List.iter
    (fun ((por, tt), expected_nodes) ->
      let combo = Fmt.str "%s [por=%b tt=%b]" name por tt in
      let v, n = Solver.solve_with_stats ~por ~tt (inst ()) in
      Alcotest.(check (list string))
        (combo ^ ": verdict + strategy") expected_sig (verdict_sig v);
      Alcotest.(check int) (combo ^ ": nodes") expected_nodes n)
    nodes

let test_solver_differential () =
  List.iter check_solver_differential solver_baseline

(* --- interner and full-depth hash properties --- *)

let rec deep_copy = function
  | Value.Unit -> Value.unit
  | Value.Bool b -> Value.bool b
  | Value.Int i -> Value.int i
  | Value.Str s -> Value.str (String.init (String.length s) (String.get s))
  | Value.Pair (a, b) -> Value.pair (deep_copy a) (deep_copy b)
  | Value.List vs -> Value.list (List.map deep_copy vs)

let prop_intern_iff_equal =
  QCheck2.Test.make ~name:"intern ids coincide iff Value.equal" ~count:300
    (QCheck2.Gen.pair Test_value.value_gen Test_value.value_gen)
    (fun (a, b) ->
      let t = Intern.create () in
      (Intern.intern t a = Intern.intern t b) = Value.equal a b)

let prop_intern_copy_stable =
  QCheck2.Test.make ~name:"structural copies intern to the same id"
    ~count:300 Test_value.value_gen (fun v ->
      let t = Intern.create () in
      Intern.intern t v = Intern.intern t (deep_copy v))

let prop_intern_roundtrip =
  QCheck2.Test.make ~name:"Intern.value inverts intern" ~count:300
    Test_value.value_gen (fun v ->
      let t = Intern.create () in
      Value.equal (Intern.value t (Intern.intern t v)) v)

let prop_hash_full_respects_equal =
  QCheck2.Test.make ~name:"hash_full agrees on structural copies"
    ~count:500 Test_value.value_gen (fun v ->
      Value.hash_full v = Value.hash_full (deep_copy v))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_intern_iff_equal;
      prop_intern_copy_stable;
      prop_intern_roundtrip;
      prop_hash_full_respects_equal;
    ]

let suite =
  [
    ( "engine.differential",
      [
        (* "legacy" is the two-pass engine the explorer replaced, now
           the [Naive_explorer] oracle *)
        Alcotest.test_case "explorer: legacy = fast on registry" `Quick
          test_explorer_differential;
        Alcotest.test_case "verify: legacy = fast reports" `Quick
          test_verify_differential;
        Alcotest.test_case "symmetry quotient agrees" `Quick test_symmetry;
        Alcotest.test_case "symmetry quotient under crash faults" `Quick
          test_symmetry_with_crashes;
        Alcotest.test_case "solver: fixed verdicts and node counts" `Quick
          test_solver_differential;
      ] );
    ("engine.intern", qsuite);
  ]
