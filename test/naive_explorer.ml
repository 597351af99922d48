(* The reference explorer: a deliberately naive test oracle for
   [Explorer.explore].

   Built only from the explorer's public successor relation: a
   recursive colouring DFS over a generic-hash [Hashtbl] visited set,
   then a separate memoized longest-path pass for the step bounds.  No
   interning, no fused DP, no partial-order reduction, no parallelism,
   so agreement with the real engine on every [Explorer.stats] field
   checks all of those at once.  Symmetry reduction is not modelled.

   The traversal order (crash edges first, then steps by ascending pid)
   and the budget checks (state cap before depth cap, both before
   marking a node) follow the engine's contract, so truncated runs are
   comparable too. *)

open Wfs_spec
open Wfs_sim

(* distinct invalid decides kept, as in the engine's report *)
let max_invalid = 10

type color = Gray | Black

let explore ?(max_states = 2_000_000) ?(max_depth = 10_000) ?(crashes = 0)
    (config : Explorer.config) : Explorer.stats =
  let colors : (Value.t, color) Hashtbl.t = Hashtbl.create 4096 in
  let terminals : (Value.t, Explorer.terminal) Hashtbl.t = Hashtbl.create 64 in
  let invalid : (int * Value.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let cyclic = ref false and stuck = ref None and truncation = ref None in
  let truncate cause = if !truncation = None then truncation := Some cause in
  let rec dfs (node : Explorer.node) depth =
    let k = Explorer.key node in
    match Hashtbl.find_opt colors k with
    | Some Gray -> cyclic := true
    | Some Black -> ()
    | None ->
        if Hashtbl.length colors >= max_states then
          truncate Explorer.Budget_states
        else if depth >= max_depth then truncate Explorer.Budget_depth
        else begin
          Hashtbl.replace colors k Gray;
          (if Explorer.is_terminal node then
             let decisions = Array.copy node.Explorer.decided in
             Hashtbl.replace terminals
               (Value.list
                  [
                    Value.list
                      (Array.to_list (Array.map Value.of_option decisions));
                    Value.int node.Explorer.stepped;
                    Value.int node.Explorer.crashed;
                  ])
               {
                 Explorer.decisions;
                 who_stepped = node.Explorer.stepped;
                 who_crashed = node.Explorer.crashed;
               }
           else
             match Explorer.successors_with_edges ~crashes config node with
             | exception Object_spec.Unknown_operation { obj; op } ->
                 stuck :=
                   Some (-1, Fmt.str "unknown operation %a on %s" Op.pp op obj)
             | [] -> stuck := Some (-1, "no successor")
             | succs ->
                 List.iter
                   (fun (pid, edge, succ) ->
                     (match edge with
                     | Explorer.Decide_edge v
                       when (not (Explorer.decision_valid node ~pid v))
                            && Hashtbl.length invalid < max_invalid ->
                         Hashtbl.replace invalid (pid, v) ()
                     | _ -> ());
                     dfs succ (depth + 1))
                   succs);
          Hashtbl.replace colors k Black
        end
  in
  dfs (Explorer.initial config) 0;
  let truncated = !truncation <> None in
  (* Second pass, only on a fully explored DAG: the per-process longest
     path, where a crash edge is nobody's step. *)
  let step_bounds =
    if !cyclic || truncated || !stuck <> None then None
    else begin
      let n = Array.length config.Explorer.procs in
      let memo : (Value.t, int array) Hashtbl.t = Hashtbl.create 4096 in
      let rec bound node =
        let k = Explorer.key node in
        match Hashtbl.find_opt memo k with
        | Some b -> b
        | None ->
            let best = Array.make n 0 in
            List.iter
              (fun (pid, edge, succ) ->
                let is_step = edge <> Explorer.Crash_edge in
                Array.iteri
                  (fun p v ->
                    let v = if is_step && p = pid then v + 1 else v in
                    if v > best.(p) then best.(p) <- v)
                  (bound succ))
              (Explorer.successors_with_edges ~crashes config node);
            Hashtbl.replace memo k best;
            best
      in
      Some (bound (Explorer.initial config))
    end
  in
  {
    Explorer.states = Hashtbl.length colors;
    terminals = Hashtbl.fold (fun _ t acc -> t :: acc) terminals [];
    cyclic = !cyclic;
    stuck = !stuck;
    truncated;
    truncation = !truncation;
    invalid_decisions =
      Hashtbl.fold (fun pv () acc -> pv :: acc) invalid []
      |> List.sort (fun (p, v) (q, w) ->
             match Int.compare p q with 0 -> Value.compare v w | c -> c);
    step_bounds;
  }
