(* Fetch-and-cons on real multicore OCaml, three ways:

   - [Cas_based]: a persistent list under a CAS retry loop.  Lock-free:
     simple and fast, but a loser retries.

   - [Swap_based]: the constant-time construction of Figures 4-3/4-4.
     One atomic exchange threads the new cell; the old head — returned
     by the very same exchange — IS the caller's result, so the
     operation is wait-free in O(1).  Linking the new cell's cdr happens
     right after the swap; a concurrent traverser that arrives in that
     instant spins briefly on the unlinked cdr.

   - [Rounds]: the §4.2 construction — fetch-and-cons from at most n+1
     rounds of consensus per operation (Figure 4-5), the runtime port of
     [Wfs_universal.Consensus_fac].  Wait-free with a bound that depends
     only on n. *)

(* Hot-path metrics, gated by [Wfs_obs.Metrics.hot] (default off: one
   branch per sample point). *)
module M = struct
  open Wfs_obs.Metrics

  let cas_retries = Counter.make "fetch_and_cons_rt.cas.retries"
  let cas_ops = Counter.make "fetch_and_cons_rt.cas.ops"
  let cas_log_length = Gauge.make "fetch_and_cons_rt.cas.log_length"
  let rounds_per_op = Histogram.make "fetch_and_cons_rt.rounds.rounds_per_op"
end

module Cas_based = struct
  type 'a t = 'a list Atomic.t

  let make () = Atomic.make []

  let rec fetch_and_cons t x =
    let old = Atomic.get t in
    if Atomic.compare_and_set t old (x :: old) then begin
      if Wfs_obs.Metrics.hot () then begin
        Wfs_obs.Metrics.Counter.incr M.cas_ops;
        Wfs_obs.Metrics.Gauge.set_max M.cas_log_length (List.length old + 1)
      end;
      old
    end
    else begin
      if Wfs_obs.Metrics.hot () then
        Wfs_obs.Metrics.Counter.incr M.cas_retries;
      fetch_and_cons t x
    end

  let contents = Atomic.get
end

module Swap_based = struct
  (* One link type serves both the anchor and every cell's cdr, so the
     [Cons] block the exchange installs in the anchor is the very block
     the next cell's cdr ends up holding: a cell costs 3 blocks (the
     cell, its cdr's [Atomic.t], its [Cons]) rather than 4. *)
  type 'a link = Unlinked | Nil | Cons of 'a cell
  and 'a cell = { value : 'a; next : 'a link Atomic.t }

  type 'a t = { anchor : 'a link Atomic.t }

  let make () = { anchor = Atomic.make Nil }

  (* One exchange; the previous head is the result. *)
  let fetch_and_cons_cells t x =
    let cell = { value = x; next = Atomic.make Unlinked } in
    let old = Atomic.exchange t.anchor (Cons cell) in
    Atomic.set cell.next old;
    old

  (* Traverse a chain; a momentarily unlinked cdr means its creator is
     between its exchange and its link — wait for it. *)
  let rec to_list = function
    | Nil -> []
    | Unlinked -> assert false (* only a cdr, never the anchor, is unlinked *)
    | Cons cell ->
        let rec follow () =
          match Atomic.get cell.next with
          | Unlinked ->
              Domain.cpu_relax ();
              follow ()
          | rest -> rest
        in
        cell.value :: to_list (follow ())

  let fetch_and_cons t x = to_list (fetch_and_cons_cells t x)
  let contents t = to_list (Atomic.get t.anchor)
end

module Rounds = struct
  type 'a t = {
    n : int;
    equal : 'a -> 'a -> bool;
    announce : 'a option Atomic.t array;
    round : int Atomic.t array;
    prefer : 'a list Atomic.t array;
    cons : int Consensus_rt.Unbounded.t;
  }

  let make ~n ~equal =
    {
      n;
      equal;
      announce = Array.init n (fun _ -> Atomic.make None);
      round = Array.init n (fun _ -> Atomic.make 0);
      prefer = Array.init n (fun _ -> Atomic.make []);
      cons = Consensus_rt.Unbounded.make ();
    }

  (* Per-process handle carrying the local [winner]/[my_round] state the
     Figure 4-5 pseudo-code keeps between calls. *)
  type 'a handle = {
    shared : 'a t;
    pid : int;
    mutable my_round : int;
    mutable winner : int;
  }

  let handle shared ~pid =
    if pid < 0 || pid >= shared.n then
      invalid_arg "Rounds.handle: pid out of range";
    { shared; pid; my_round = 0; winner = pid }

  let mem equal x l = List.exists (equal x) l

  let merge equal ~prefix ~suffix =
    let rec go = function
      | [] -> suffix
      | p :: g -> if mem equal p suffix then go g else p :: go g
    in
    go prefix

  let rec trim equal list x =
    match list with
    | [] -> None
    | y :: rest -> if equal y x then Some rest else trim equal rest x

  (* Figure 4-5, line for line. *)
  let fetch_and_cons h x =
    let t = h.shared in
    Atomic.set t.announce.(h.pid) (Some x);
    (* scan: goal and lastRound *)
    let goal = ref [] and last_round = ref 0 in
    for p = 0 to t.n - 1 do
      (match Atomic.get t.announce.(p) with
      | Some item -> goal := item :: !goal
      | None -> ());
      last_round := max !last_round (Atomic.get t.round.(p))
    done;
    let goal = !goal in
    (* catch-up *)
    if !last_round > h.my_round then
      h.winner <- Consensus_rt.Unbounded.decide t.cons ~round:!last_round h.pid;
    let base = max !last_round h.my_round in
    let result = ref None in
    let r = ref base and iter = ref 1 in
    while !result = None do
      incr r;
      let merged =
        merge t.equal ~prefix:goal ~suffix:(Atomic.get t.prefer.(h.winner))
      in
      Atomic.set t.prefer.(h.pid) merged;
      h.winner <- Consensus_rt.Unbounded.decide t.cons ~round:!r h.pid;
      let adopted = Atomic.get t.prefer.(h.winner) in
      Atomic.set t.prefer.(h.pid) adopted;
      Atomic.set t.round.(h.pid) !r;
      h.my_round <- !r;
      if h.winner = h.pid || !iter >= t.n then
        result :=
          Some
            (match trim t.equal adopted x with
            | Some tail -> tail
            | None ->
                (* Lemma 24: after n rounds x is in the winner's
                   preference; reaching here indicates a broken
                   environment *)
                assert false)
      else incr iter
    done;
    if Wfs_obs.Metrics.hot () then
      (* consensus rounds consumed by this operation (Fig 4-5 bound:
         at most n+1) *)
      Wfs_obs.Metrics.Histogram.observe M.rounds_per_op (!r - base);
    Option.get !result
end
