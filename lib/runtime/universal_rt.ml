(* The universal construction on real multicore OCaml.

   Given any sequential object (pure [apply] on an immutable state), we
   build linearizable wait-free/lock-free shared versions of it — the
   practical payoff of §4: "a machine architecture is powerful enough to
   support arbitrary wait-free synchronization iff it provides a
   universal object".  OCaml's [Atomic] provides compare-and-swap, which
   Theorem 7 places at the top of the hierarchy, so everything below is
   built from it.

   Three constructions over the same signature:

   - [Lock_free]: the log head is a snapshot node (state + result); an
     operation replays nothing — it CASes a fresh node carrying the new
     state.  Lock-free: a loser retries, but some operation always
     completes.  (This is the paper's fetch-and-cons log with the
     truncation of §4.1 taken to its limit: every node carries its
     state, so replay cost is 0.)

   - [Wait_free]: the service-grade construction.  Announce-and-help as
     in Herlihy's universal algorithm, with two §4-motivated upgrades:
     each consensus round threads a *batch* node carrying every
     currently-announced invocation (helping amortizes across clients),
     and the log is *truncated* behind periodic state snapshots (§4.1's
     strongly-wait-free variant) so memory stays bounded under
     sustained traffic.

   - [Locked]: the mutex baseline the introduction argues against: a
     page fault / preemption inside the critical section stalls
     everyone.  Used by the benchmarks as the comparison point. *)

module type SEQ = sig
  type state
  type op
  type res

  val init : state
  val apply : state -> op -> state * res
end

module type S = sig
  type t
  type op
  type res

  val create : unit -> t
  val apply : t -> op -> res
end

(* Hot-path metrics.  Every sample sits behind [Metrics.hot ()] — one
   branch on a plain ref when sampling is off — so benchmark numbers
   stay comparable with uninstrumented builds.  None of the wait-free
   samples below does work proportional to [n] per *operation*, and
   none costs even a fetch-and-add per operation when hot: counters and
   stats are published at sampled log positions by the unique frontier
   advancer (see [fill]), the O(n)/O(window) scans (watermark,
   retained) only every 16th snapshot, and announce occupancy
   piggybacks on the collect scan the slow path performs anyway.  The
   `profile/wait-free-metrics` bench pair patrols the total hot tax
   (budget ≤5%). *)
module M = struct
  open Wfs_obs.Metrics

  let lf_ops = Counter.make "universal_rt.lock_free.ops"
  let lf_cas_retries = Counter.make "universal_rt.lock_free.cas_retries"
  let lf_apply_ns = Histogram.make "universal_rt.lock_free.apply_ns"
  let lf_log_length = Gauge.make "universal_rt.lock_free.log_length"
  let wf_ops = Counter.make "universal_rt.wait_free.ops"
  let wf_help_rounds = Counter.make "universal_rt.wait_free.help_rounds"

  (* per-operation distribution of help rounds: the p50/p99 `wfs top`
     renders as the live health of the helping protocol *)
  let wf_help_rounds_hist =
    Histogram.make "universal_rt.wait_free.help_rounds_hist"

  let wf_apply_ns = Histogram.make "universal_rt.wait_free.apply_ns"
  let wf_log_length = Gauge.make "universal_rt.wait_free.log_length"

  (* announce slots whose invocation is still unthreaded — the paper's
     "announce-list pressure"; sampled per consensus round, during the
     collect scan *)
  let wf_announce_occupancy =
    Gauge.make "universal_rt.wait_free.announce_occupancy"

  (* operations threaded per winning consensus round *)
  let wf_batch_size = Histogram.make "universal_rt.wait_free.batch_size"

  (* §4.1 truncation telemetry: snapshots taken, nodes retained behind
     the frontier, and the reclamation watermark (min announced
     position over the processes) *)
  let wf_snapshots = Counter.make "universal_rt.wait_free.snapshots"
  let wf_retained = Gauge.make "universal_rt.wait_free.retained"
  let wf_watermark = Gauge.make "universal_rt.wait_free.watermark"

  (* successor decisions that read a retired cell's tombstone: a
     stale decider whose position was already threaded (see [fill]) *)
  let wf_tombstones = Counter.make "universal_rt.wait_free.tombstones"
end

module Lock_free (Seq : SEQ) = struct
  type op = Seq.op
  type res = Seq.res

  type node = { state : Seq.state; result : Seq.res option; length : int }

  type t = node Atomic.t

  let create () =
    Atomic.make { state = Seq.init; result = None; length = 0 }

  let rec apply_node t op =
    let head = Atomic.get t in
    let state, result = Seq.apply head.state op in
    let node = { state; result = Some result; length = head.length + 1 } in
    if Atomic.compare_and_set t head node then node
    else begin
      if Wfs_obs.Metrics.hot () then
        Wfs_obs.Metrics.Counter.incr M.lf_cas_retries;
      apply_node t op
    end

  let apply t op =
    if not (Wfs_obs.Metrics.hot ()) then
      Option.get (apply_node t op).result
    else begin
      let node, dur = Wfs_obs.Clock.elapsed_ns (fun () -> apply_node t op) in
      Wfs_obs.Metrics.Counter.incr M.lf_ops;
      Wfs_obs.Metrics.Histogram.observe M.lf_apply_ns dur;
      Wfs_obs.Metrics.Gauge.set_max M.lf_log_length node.length;
      Option.get node.result
    end

  let length t = (Atomic.get t).length
  let read t = (Atomic.get t).state
end

(* Batching + truncating wait-free universal object.

   Structure of a round: a client (or helper) reads the frontier — the
   latest threaded node — collects every announced-but-unapplied
   invocation into a fresh *batch node*, and runs one-shot consensus on
   the frontier's successor.  Whichever node wins, every helper then
   *fills* it deterministically: a per-invocation one-shot *claim*
   consensus (decided by node id) picks the unique node that threads
   each invocation, so an invocation collected into several competing
   batches is applied exactly once no matter which nodes win; claimed
   invocations are applied in batch order to the predecessor's state,
   and their results and linearization positions are written back.

   Wait-freedom: batching alone can starve a slow announcer (a winning
   batch may have been collected before it announced), so Herlihy's
   deterministic helping survives as the fallback — position p's
   contenders all compute the same priority process j = p mod n, and if
   j's invocation has been pending for more than n+1 positions they all
   propose the *same* canonical singleton node (carried by the
   invocation itself), which therefore wins.  The original argument
   then bounds completion by ~2n rounds.  Under steady load the age
   check never trips and full batches thread.

   Truncation (§4.1): every [window]-th node is a snapshot node — its
   fill memoizes the post-state and then severs its back-pointer.
   State reconstruction replays forward from the nearest snapshot (at
   most [window] nodes); the per-node memo makes the common case O(1).
   Nothing durable points backwards past a snapshot: announce
   slots are cleared by their owners, clients re-read the frontier
   every round, and the claim objects hold node *ids* (ints), so the
   GC reclaims everything behind the last snapshot.

   Reclamation has a second half, on the forward side.  A node's
   successor consensus [decide_next] points at the next node; once a
   node has been promoted to the major heap, the CAS that decides its
   successor puts the cell in the minor GC's remembered set, and that
   entry roots the successor — and, through each successor's own
   [decide_next], the whole chain up to the frontier — at the next
   minor collection, dead or not.  So the unique [advance] winner
   retires [before.decide_next]: it overwrites the decided cell with
   the object's preallocated tombstone, which is old and points at
   nothing young, and the chain dies young.  Why this keeps the
   construction correct:

   - A retired cell was decided and never reads [None] again, so no
     later proposal is installed: no position is decided twice.
   - Retirement follows [after]'s [seq] store and the frontier CAS
     onto [after], so a tombstone means the position behind [before]
     is threaded.  A decider that reads it is stale exactly as one
     that reads the winner and fills an already-threaded node: it
     skips the fill and re-reads the frontier, which has moved on.
   - Hence every round still either threads a position or observes
     that one was threaded since its frontier read: Herlihy's age
     check and ~2n-round bound, and [Causal.step_bound], are
     unchanged.

   The reclamation watermark of §4.1 — min over the processes'
   announced positions — is exported as telemetry ([watermark]); in a
   GC runtime it gates nothing, but it is exactly the bound below
   which no process can still reference a node. *)
module Wait_free (Seq : SEQ) = struct
  type op = Seq.op
  type res = Seq.res

  type invoc = {
    ticket : int;
    iop : Seq.op;
    claim : int Consensus_rt.One_shot.t;
        (* id of the unique node that threads this invocation — an
           announced invocation can be collected into several competing
           batches and must be applied exactly once *)
    mutable pos : int;
        (* global linearization index; a plain field published by the
           [result] store — every filler writes the same value before
           its (atomic, release) result write, so a client that
           observes its result also observes its position *)
    result : Seq.res option Atomic.t;
    born : int;  (* frontier seq at announce time, for the age check *)
    help : node option Atomic.t;
        (* canonical singleton node all helpers propose when this
           invocation is starving, made canonical by the CAS in
           [help_node_of] *)
    trace : int;  (* causal trace id; -1 when tracing is off *)
    traced : bool;  (* in the 1-in-k sample (or a forced canary) *)
    mutable edge_done : bool;
        (* one claim/help event per invocation; benign race — two
           fillers may both record, the auditor dedups *)
  }

  and node = {
    id : int;
        (* claims are decided on ids.  0 for nodes with an empty batch:
           they decide no claims, so they skip the id counter and may
           share the id. *)
    batch : invoc array;  (* announced invocations riding along *)
    own_op : Seq.op option;
        (* the proposer's un-announced invocation (fast path).  It
           lives in exactly this node, so it needs no claim consensus;
           its result and position are the inline fields below rather
           than a shared [invoc]. *)
    mutable own_pos : int;
    mutable own_res : Seq.res option;
        (* plain, unlike an [invoc]'s result: only the proposer reads
           its own invocation's result, and the proposer is itself a
           filler of the winning node, so it always observes its own
           program-order write (racing fillers write identical
           values — a racy read of another filler's block is
           well-defined and equal under the OCaml memory model) *)
    decide_next : node Consensus_rt.One_shot.t;
    seq : int Atomic.t;  (* log position; 0 until threaded *)
    mutable opcount : int;
        (* operations threaded up to this node; every filler writes the
           same value before its [seq] store publishes the node *)
    mutable prev : node;
        (* back-pointer: [t.unlinked] until the first filler links it,
           the node itself once a snapshot fill severs it.  Plain —
           racing fillers write the same predecessor, and all reads
           happen through nodes published by the frontier. *)
    mutable post : Seq.state option;
        (* memoized post-state; every filler writes the same
           deterministic value before its [seq] store, so any process
           that sees the node threaded can read its state in O(1).  A
           stale [None] read just falls back to the bounded replay. *)
    own_trace : int;  (* causal trace id of [own_op]; -1 untraced *)
    own_traced : bool;
    mutable own_edge_done : bool;
  }

  type t = {
    n : int;
    label : string;  (* object name in causal events *)
    canary : int;
        (* when > 0, every [canary]-th ticket skips the fast path,
           announces, and parks briefly so another client's collect
           threads it — deterministic cross-client help edges even on
           boxes where domains time-slice and never naturally race *)
    window : int;  (* log positions between state snapshots *)
    tickets : int Atomic.t;  (* per-object: see the regression test *)
    node_ids : int Atomic.t;
    counted : int Atomic.t;
        (* opcount last published to the ops counter (sampled, see
           [fill]) *)
    unlinked : node;  (* distinguished not-yet-linked marker *)
    retired : node;  (* what a retired [decide_next] decides *)
    tomb : node Consensus_rt.One_shot.tombstone;  (* [retired], boxed once *)
    announce : invoc option Atomic.t array;
    progress : int Atomic.t array;
        (* per-process announced-at position; max_int when idle *)
    frontier : node Atomic.t;  (* latest threaded node *)
  }

  let make_node t ?(own_trace = -1) ?(own_traced = false) ~own_op batch =
    {
      id =
        (if Array.length batch = 0 then 0
         else Atomic.fetch_and_add t.node_ids 1);
      batch;
      own_op;
      own_pos = -1;
      own_res = None;
      decide_next = Consensus_rt.One_shot.make ();
      seq = Atomic.make 0;
      opcount = 0;
      prev = t.unlinked;
      post = None;
      own_trace;
      own_traced;
      own_edge_done = false;
    }

  (* a self-severed node with no batch: the sentinel and the
     [unlinked] marker *)
  let blank_node ~post =
    let rec node =
      {
        id = 0;
        batch = [||];
        own_op = None;
        own_pos = -1;
        own_res = None;
        decide_next = Consensus_rt.One_shot.make ();
        seq = Atomic.make 0;
        opcount = 0;
        prev = node;
        post;
        own_trace = -1;
        own_traced = false;
        own_edge_done = false;
      }
    in
    node

  let create ?(label = "universal") ?(canary = 0) ?(window = 32) ~n () =
    if n <= 0 then invalid_arg "Wait_free.create: n";
    if window <= 0 then invalid_arg "Wait_free.create: window";
    if canary < 0 then invalid_arg "Wait_free.create: canary";
    if Wfs_obs.Causal.enabled () then
      Wfs_obs.Causal.meta ~obj:label ~n ~bound:(Wfs_obs.Causal.step_bound ~n);
    (* the sentinel is born severed: the log starts truncated at its
       initial snapshot *)
    let sentinel = blank_node ~post:(Some Seq.init) in
    let retired = blank_node ~post:None in
    {
      n;
      label;
      canary;
      window;
      tickets = Atomic.make 0;
      node_ids = Atomic.make 1;
      counted = Atomic.make 0;
      unlinked = blank_node ~post:None;
      retired;
      tomb = Consensus_rt.One_shot.tombstone retired;
      announce = Array.init n (fun _ -> Atomic.make None);
      progress = Array.init n (fun _ -> Atomic.make max_int);
      frontier = Atomic.make sentinel;
    }

  (* Causal recording, off the hot path: called at most once per traced
     invocation (the [edge_done] flags), and only when the invocation
     was sampled at issue time.  The helper attribution reads the
     recording domain's current trace id — when a filler applies
     somebody else's invocation, that is a help edge. *)
  let note_claim t inv node pos =
    if Wfs_obs.Causal.enabled () then begin
      Wfs_obs.Causal.claim ~obj:t.label ~trace:inv.trace ~node:node.id ~pos;
      let helper = Wfs_obs.Causal.current () in
      if helper <> inv.trace then
        Wfs_obs.Causal.help ~obj:t.label ~helper ~helped:inv.trace ~pos
    end

  let note_own_help t node pos =
    if Wfs_obs.Causal.enabled () then begin
      let helper = Wfs_obs.Causal.current () in
      if helper <> node.own_trace then
        Wfs_obs.Causal.help ~obj:t.label ~helper ~helped:node.own_trace ~pos
    end

  (* State after a threaded [node]: its memoized post-state, or a
     replay from the predecessor — bounded by [window] since
     back-pointers are severed at snapshot nodes.  The memo is
     published by the [seq] store that threads the node, so the replay
     only runs on formally-racy stale reads; the relax-spin covers the
     severed-before-memo-visible corner, where the filler's own memo
     write is imminent. *)
  let rec state_after t node =
    match node.post with
    | Some s -> s
    | None ->
        let p = node.prev in
        if p == node || p == t.unlinked then begin
          Domain.cpu_relax ();
          state_after t node
        end
        else apply_batch t ~base:(state_after t p) ~base_ops:p.opcount node

  (* Fold [node]'s invocations over [base]: claimed batch entries
     first, then the proposer's own (claim-free) invocation.
     Deterministic for every helper — claims are consensus-decided and
     batch order is fixed at collect time — so the value writes below
     are idempotent.  [pos], [own_pos] and [opcount] are plain writes
     published by the atomic result / [seq] stores. *)
  and apply_batch t ~base ~base_ops node =
    let st = ref base and k = ref 0 in
    (* a for loop, not [Array.iter]: the iter closure would allocate on
       every fill, which is the per-operation hot path *)
    for i = 0 to Array.length node.batch - 1 do
      let inv = Array.unsafe_get node.batch i in
      if Consensus_rt.One_shot.decide inv.claim node.id = node.id then begin
        let st', r = Seq.apply !st inv.iop in
        st := st';
        inv.pos <- base_ops + !k;
        (* claim consensus just decided where this invocation threads:
           record the claim and, when the filler is somebody else's
           invocation, the help edge (untraced invocations pay one
           immediate-false branch here) *)
        if inv.traced && not inv.edge_done then begin
          inv.edge_done <- true;
          note_claim t inv node (base_ops + !k)
        end;
        Atomic.set inv.result (Some r);
        incr k
      end
    done;
    (match node.own_op with
    | Some op ->
        let st', r = Seq.apply !st op in
        st := st';
        node.own_pos <- base_ops + !k;
        if node.own_traced && not node.own_edge_done then begin
          node.own_edge_done <- true;
          note_own_help t node (base_ops + !k)
        end;
        node.own_res <- Some r;
        incr k
    | None -> ());
    node.opcount <- base_ops + !k;
    !st

  (* nodes reachable backwards from the frontier before the truncation
     cut — the retained window the bounded-memory test patrols *)
  let retained t =
    let rec go node acc =
      let p = node.prev in
      if p == node || p == t.unlinked then acc else go p (acc + 1)
    in
    go (Atomic.get t.frontier) 1

  (* §4.1 reclamation watermark: the oldest position any in-flight
     operation announced at; the frontier itself when all are idle *)
  let watermark t =
    let w = ref max_int in
    for i = 0 to t.n - 1 do
      let p = Atomic.get t.progress.(i) in
      if p < !w then w := p
    done;
    if !w = max_int then Atomic.get (Atomic.get t.frontier).seq else !w

  let length t = (Atomic.get t.frontier).opcount
  let tickets_issued t = Atomic.get t.tickets
  let window t = t.window
  let read t = state_after t (Atomic.get t.frontier)

  let rec advance t node seq =
    let cur = Atomic.get t.frontier in
    if Atomic.get cur.seq >= seq then false
    else if Atomic.compare_and_set t.frontier cur node then true
    else advance t node seq

  (* Thread [after] behind [before]: all helpers run this idempotently.
     Write order matters for the no-double-threading argument — claims,
     results and [seq] are all set before the frontier advances past
     this node, so any process that later reads a frontier at or beyond
     it must also see it threaded. *)
  let fill t ~before after =
    let seq = Atomic.get before.seq + 1 in
    if after.prev == t.unlinked then after.prev <- before;
    let base = state_after t before in
    let base_ops = before.opcount in
    let st = apply_batch t ~base ~base_ops after in
    if seq mod t.window = 0 then begin
      (* snapshot node: the post-state memo below is the snapshot;
         severing the back-pointer is what lets the GC reclaim
         everything behind it *)
      after.prev <- after;
      if Wfs_obs.Metrics.hot () then begin
        Wfs_obs.Metrics.Counter.incr M.wf_snapshots;
        (* the retained walk is O(window) and the watermark scan O(n);
           patrol them on every 16th snapshot, not every one *)
        if (seq / t.window) land 15 = 0 then begin
          Wfs_obs.Metrics.Gauge.set M.wf_retained (retained t);
          Wfs_obs.Metrics.Gauge.set M.wf_watermark (watermark t)
        end
      end
    end;
    after.post <- Some st;
    Atomic.set after.seq seq;
    (* Telemetry is published by the unique [advance] winner, sampled 1
       position in 32.  The ops counter stays *eventually exact* without
       a per-node fetch-and-add: [opcount] is the monotone running
       total, so at each sampled position the winner publishes the delta
       since the last sample ([t.counted] telescopes — concurrent
       winners may publish out of order, but the sums cancel and the
       counter converges to the last exchanged opcount, lagging the log
       by at most 31 positions). *)
    if advance t after seq then begin
      (* [after] is threaded and the frontier is past [before]: drop
         the forward link (the second half of reclamation, above) *)
      Consensus_rt.One_shot.retire before.decide_next t.tomb;
      if seq land 31 = 0 && Wfs_obs.Metrics.hot () then begin
        let c = after.opcount in
        Wfs_obs.Metrics.Counter.add M.wf_ops (c - Atomic.exchange t.counted c);
        Wfs_obs.Metrics.Histogram.observe M.wf_batch_size (after.opcount - base_ops);
        Wfs_obs.Metrics.Gauge.set_max M.wf_log_length c
      end
    end

  (* every announced invocation not yet applied, in announce-slot
     order; allocation-free when nothing is pending *)
  let collect t =
    let rec go i acc =
      if i < 0 then acc
      else
        match Atomic.get t.announce.(i) with
        | Some inv when Atomic.get inv.result = None -> go (i - 1) (inv :: acc)
        | _ -> go (i - 1) acc
    in
    go (t.n - 1) []

  let starving t ~head_seq inv = head_seq - inv.born > t.n + 1

  (* A tombstone decision is a lost race on an already-threaded
     position: there is nothing to fill *)
  let lost_to_retirement t after =
    let lost = after == t.retired in
    if lost && Wfs_obs.Metrics.hot () then
      Wfs_obs.Metrics.Counter.incr M.wf_tombstones;
    lost

  (* The canonical singleton node for a starving invocation: first CAS
     wins, every helper proposes the winner.  Allocated only when the
     age check trips. *)
  let rec help_node_of t inv =
    match Atomic.get inv.help with
    | Some hn -> hn
    | None ->
        let hn = make_node t ~own_op:None [| inv |] in
        if Atomic.compare_and_set inv.help None (Some hn) then hn
        else help_node_of t inv

  let round t =
    let head = Atomic.get t.frontier in
    let head_seq = Atomic.get head.seq in
    let j = (head_seq + 1) mod t.n in
    let help =
      match Atomic.get t.announce.(j) with
      | Some jinv
        when starving t ~head_seq jinv && Atomic.get jinv.result = None -> (
          (* the [seq = 0] re-check (after the frontier read above) is
             what prevents an already-threaded help node from being
             threaded twice *)
          match help_node_of t jinv with
          | hn when Atomic.get hn.seq = 0 -> Some hn
          | _ -> None)
      | _ -> None
    in
    let prefer =
      match help with
      | Some hn -> hn
      | None ->
          let pending = collect t in
          if Wfs_obs.Metrics.hot () then
            Wfs_obs.Metrics.Gauge.set M.wf_announce_occupancy
              (List.length pending);
          make_node t ~own_op:None (Array.of_list pending)
    in
    let after = Consensus_rt.One_shot.decide head.decide_next prefer in
    if not (lost_to_retirement t after) then fill t ~before:head after

  let announce t ~pid ~trace ~traced op =
    let born = Atomic.get (Atomic.get t.frontier).seq in
    let inv =
      {
        ticket = Atomic.fetch_and_add t.tickets 1;
        iop = op;
        claim = Consensus_rt.One_shot.make ();
        pos = -1;
        result = Atomic.make None;
        born;
        help = Atomic.make None;
        trace;
        traced;
        edge_done = false;
      }
    in
    Atomic.set t.progress.(pid) born;
    Atomic.set t.announce.(pid) (Some inv);
    if traced && Wfs_obs.Causal.enabled () then
      Wfs_obs.Causal.announce ~obj:t.label ~trace ~pid ~born;
    inv

  (* bounded park between announce and self-help for canary
     invocations: up to 20 short sleeps, then Herlihy as usual *)
  let canary_grace = 20

  (* The announce + help path: announce, (optionally) park so another
     client can collect us, then run helping rounds until some filler
     publishes our result.  [steps0] counts own steps already spent
     before announcing (the lost fast-path attempt). *)
  let apply_announced t ~pid ~trace ~traced ~steps0 ~grace op =
    let inv = announce t ~pid ~trace ~traced op in
    if grace > 0 then begin
      let patience = ref grace in
      while !patience > 0 && Atomic.get inv.result = None do
        decr patience;
        Wfs_obs.Causal.backoff ()
      done
    end;
    let rounds = ref 1 in
    while Atomic.get inv.result = None do
      incr rounds;
      round t
    done;
    Atomic.set t.announce.(pid) None;
    Atomic.set t.progress.(pid) max_int;
    (* help-round telemetry is recorded here, for the operations
       that actually fell back to announce + help (fast-path wins
       are trivially one round), sampled 1 ticket in 64 *)
    if Wfs_obs.Metrics.hot () && inv.ticket land 63 = 0 then begin
      Wfs_obs.Metrics.Counter.add M.wf_help_rounds !rounds;
      Wfs_obs.Metrics.Histogram.observe M.wf_help_rounds_hist !rounds
    end;
    if traced && Wfs_obs.Causal.enabled () then
      Wfs_obs.Causal.complete ~obj:t.label ~trace ~pos:inv.pos
        ~own_steps:(steps0 + !rounds) ~help_rounds:!rounds;
    (Option.get (Atomic.get inv.result), inv.pos)

  (* One direct attempt, then Herlihy.  The fast path races a batch
     node straight at the frontier's successor without touching the
     announce slots: its own invocation is carried inline by the node
     (so it needs no claim consensus and no helping machinery), while
     every pending announced invocation still rides along, so helping
     and batching are not weakened.  If the consensus is lost the
     invocation is re-issued through announce + help, which restores
     the original wait-freedom bound. *)
  let apply_own t ~pid op =
    let ticket = Atomic.fetch_and_add t.tickets 1 in
    (* sampling is decided from the ticket BEFORE a trace id is issued:
       the unsampled common case costs one gate load and a mask — no
       global id counter, no DLS — which is what holds the traced
       service inside its <=5% overhead budget *)
    let gate = !Wfs_obs.Causal.trace_gate in
    let trace, traced, canary_op =
      if gate >= 0 then begin
        let canary_op = t.canary > 0 && (ticket + 1) mod t.canary = 0 in
        if canary_op || ticket land gate = 0 then
          (Wfs_obs.Causal.issue (), true, canary_op)
        else (-1, false, false)
      end
      else (-1, false, false)
    in
    if traced then Wfs_obs.Causal.invoke ~obj:t.label ~trace ~pid;
    if canary_op then
      (* forced slow path: announce first and linger so a concurrent
         client's collect (not our own round) threads the invocation *)
      apply_announced t ~pid ~trace ~traced ~steps0:0 ~grace:canary_grace op
    else begin
      let head = Atomic.get t.frontier in
      let batch =
        match collect t with
        | [] -> [||]
        | pending ->
            if Wfs_obs.Metrics.hot () && ticket land 63 = 0 then
              Wfs_obs.Metrics.Gauge.set M.wf_announce_occupancy
                (List.length pending);
            Array.of_list pending
      in
      let node =
        make_node t ~own_trace:trace ~own_traced:traced ~own_op:(Some op)
          batch
      in
      let after = Consensus_rt.One_shot.decide head.decide_next node in
      if not (lost_to_retirement t after) then fill t ~before:head after;
      if after != node then
        apply_announced t ~pid ~trace ~traced ~steps0:1 ~grace:0 op
      else begin
        if traced && Wfs_obs.Causal.enabled () then
          Wfs_obs.Causal.complete ~obj:t.label ~trace ~pos:node.own_pos
            ~own_steps:1 ~help_rounds:0;
        (Option.get node.own_res, node.own_pos)
      end
    end

  (* The per-operation hot path pays two branches: the ops counter
     lives in [fill] (per node, exact), and the latency sample is
     taken for 1 ticket in 64 so the clock reads and histogram
     updates stay off the common path — that is what keeps the
     metrics-hot tax inside the <=5% budget the profile bench
     patrols. *)
  let apply_pos t ~pid op =
    if Wfs_obs.Metrics.hot () && Atomic.get t.tickets land 63 = 0 then begin
      let rp, dur = Wfs_obs.Clock.elapsed_ns (fun () -> apply_own t ~pid op) in
      Wfs_obs.Metrics.Histogram.observe M.wf_apply_ns dur;
      rp
    end
    else apply_own t ~pid op

  let apply t ~pid op = fst (apply_own t ~pid op)
end

module Locked (Seq : SEQ) = struct
  type op = Seq.op
  type res = Seq.res

  type t = { mutex : Mutex.t; mutable state : Seq.state }

  let create () = { mutex = Mutex.create (); state = Seq.init }

  let apply t op =
    Mutex.lock t.mutex;
    let state, result = Seq.apply t.state op in
    t.state <- state;
    Mutex.unlock t.mutex;
    result

  let read t =
    Mutex.lock t.mutex;
    let state = t.state in
    Mutex.unlock t.mutex;
    state
end
