(* Consensus objects on real multicore OCaml.

   [One_shot] is the compare-and-swap election of Theorem 7: the first
   process to install its proposal wins and every participant returns
   the winning value.  Wait-free in a handful of instructions.

   [Tas_two] is the Theorem 4 election for two processes from
   test-and-set plus two announcement registers — the hardware analogue
   of the protocol the simulator verifies (and that the bounded solver
   synthesizes). *)

module One_shot = struct
  type 'a t = 'a option Atomic.t

  (* Hot-gated, like every runtime counter: one branch on a plain ref
     when sampling is off.  A retry means the CAS lost to a concurrent
     decider — consensus-round pressure in the universal construction. *)
  let retries = Wfs_obs.Metrics.Counter.make "consensus_rt.one_shot.retries"

  let make () = Atomic.make None

  let rec decide t v =
    match Atomic.get t with
    | Some winner -> winner
    | None ->
        if Atomic.compare_and_set t None (Some v) then v
        else begin
          if Wfs_obs.Metrics.hot () then
            Wfs_obs.Metrics.Counter.incr retries;
          decide t v
        end

  let peek t = Atomic.get t

  (* A tombstone is a preallocated [Some v]: retiring with it allocates
     nothing, and once the tombstone is old the retired cell roots no
     young block at the next minor collection. *)
  type 'a tombstone = 'a option

  let tombstone v = Some v

  (* Overwrite a decided cell with [tomb].  The cell is never [None]
     again, so no later [decide] installs a proposal: every later
     decider returns the tombstone's value instead of the winner. *)
  let retire t tomb =
    match Atomic.get t with
    | None -> invalid_arg "One_shot.retire: undecided"
    | Some _ -> Atomic.set t tomb
end

module Tas_two = struct
  type 'a t = {
    flag : Primitives.Test_and_set.t;
    proposals : 'a option Atomic.t array;
  }

  let make () =
    {
      flag = Primitives.Test_and_set.make ();
      proposals = [| Atomic.make None; Atomic.make None |];
    }

  (* [decide t ~pid v] for pid in {0, 1}.  Announce, then race on the
     flag: the winner's proposal is the decision.  The loser may have to
     wait for the winner's announcement to become visible — it already
     happened before the winner's test-and-set, so the read below never
     actually spins; the option forces totality. *)
  let decide t ~pid v =
    if pid < 0 || pid > 1 then invalid_arg "Tas_two.decide: pid must be 0 or 1";
    Atomic.set t.proposals.(pid) (Some v);
    let won = not (Primitives.Test_and_set.test_and_set t.flag) in
    let winner_pid = if won then pid else 1 - pid in
    match Atomic.get t.proposals.(winner_pid) with
    | Some w -> w
    | None ->
        (* unreachable: the winner announced before setting the flag *)
        assert false
end

(* An unbounded array of one-shot consensus objects (the paper's
   [consensus[k]]), grown lock-free in fixed-size chunks. *)
module Unbounded = struct
  let chunk_size = 64

  type 'a chunk = { cells : 'a One_shot.t array; next : 'a chunk option Atomic.t }

  type 'a t = 'a chunk

  let new_chunk () =
    {
      cells = Array.init chunk_size (fun _ -> One_shot.make ());
      next = Atomic.make None;
    }

  let make () = new_chunk ()

  let rec chunk_at t i =
    if i = 0 then t
    else
      let next =
        match Atomic.get t.next with
        | Some c -> c
        | None ->
            let fresh = new_chunk () in
            if Atomic.compare_and_set t.next None (Some fresh) then fresh
            else Option.get (Atomic.get t.next)
      in
      chunk_at next (i - 1)

  let round t k =
    if k < 0 then invalid_arg "Unbounded.round: negative round";
    (chunk_at t (k / chunk_size)).cells.(k mod chunk_size)

  let decide t ~round:k v = One_shot.decide (round t k) v
end
