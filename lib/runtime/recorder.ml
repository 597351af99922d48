(* Concurrent history recording for runtime linearizability testing.

   Each INVOKE/RESPOND event takes a ticket from an atomic counter and
   writes itself into the corresponding slot of a preallocated array.
   Ticket acquisition is a single atomic instruction, so the recorded
   order is a legal interleaving consistent with real time: if operation
   A responded before operation B was invoked, A's RESPOND ticket is
   smaller than B's INVOKE ticket.  The resulting event sequence is fed
   to the exhaustive linearizability checker from [Wfs_history]. *)

type t = {
  slots : Wfs_history.Event.t option Atomic.t array;
  next : int Atomic.t;
  span_tick : int Atomic.t;
      (* profiling-only sampling counter for [rt.op] spans, see
         [around] *)
}

let create ~capacity =
  {
    slots = Array.init capacity (fun _ -> Atomic.make None);
    next = Atomic.make 0;
    span_tick = Atomic.make 0;
  }

exception Capacity_exceeded

let capacity t = Array.length t.slots
let used t = min (Atomic.get t.next) (Array.length t.slots)
let headroom t = max 0 (capacity t - used t)

(* remaining capacity after the most recent record, so a run can see
   how close it came to [Capacity_exceeded] *)
let headroom_gauge = Wfs_obs.Metrics.Gauge.make "recorder.headroom"

let record t event =
  let ticket = Atomic.fetch_and_add t.next 1 in
  if ticket >= Array.length t.slots then raise Capacity_exceeded;
  if Wfs_obs.Metrics.hot () then
    Wfs_obs.Metrics.Gauge.set headroom_gauge
      (Array.length t.slots - ticket - 1);
  Atomic.set t.slots.(ticket) (Some event)

let invoke t ~pid ~obj op = record t (Wfs_history.Event.invoke ~pid ~obj op)

let respond t ~pid ~obj res = record t (Wfs_history.Event.respond ~pid ~obj res)

(* The recorded history, in ticket order.  Call at quiescence: a [None]
   gap means some event's write is still in flight. *)
let history t : Wfs_history.History.t =
  let n = min (Atomic.get t.next) (Array.length t.slots) in
  let rec collect i acc =
    if i < 0 then acc
    else
      match Atomic.get t.slots.(i) with
      | Some e -> collect (i - 1) (e :: acc)
      | None -> collect (i - 1) acc
  in
  collect (n - 1) []

(* Convenience: record around an operation execution.  If [f] raises —
   a fault-injected halt, or any bug in the implementation under test —
   we must not leave the INVOKE dangling: a later operation by the same
   process would make its subhistory ill-formed, and the
   linearizability checker would silently see a phantom pending
   operation.  Record the distinguished crashed response (which
   [History.operations] maps back to "pending") and re-raise. *)
let around t ~pid ~obj ~op ~encode_res f =
  (* [Op.name] is one constant-time projection — cheap enough for the
     profiler's per-op span args, unlike a full [Op.pp] render.

     Runtime operations are sub-microsecond, so a span per op dominates
     them: the profile bench's recorder-op section measured +350% to
     +380% per op with every op spanned, against run-to-run noise
     (-18% to +10%) at 1 in 64, on a 2-core x86_64 VM.  Sample 1 in 64:
     the trace keeps the op mix and the per-op duration distribution at
     1/64 the events, and the unprofiled path is untouched. *)
  let prof =
    Wfs_obs.Profile.enabled ()
    && Atomic.fetch_and_add t.span_tick 1 land 63 = 0
  in
  if prof then
    Wfs_obs.Profile.begin_ ~cat:"runtime"
      ~args:(fun () ->
        [
          ("op", Wfs_obs.Json.str (Wfs_spec.Op.name op));
          ("obj", Wfs_obs.Json.str obj);
          ("pid", Wfs_obs.Json.int pid);
        ])
      "rt.op";
  invoke t ~pid ~obj op;
  match f () with
  | res ->
      respond t ~pid ~obj (encode_res res);
      if prof then Wfs_obs.Profile.end_ ();
      res
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      respond t ~pid ~obj Wfs_history.Event.crashed_res;
      if prof then Wfs_obs.Profile.end_ ();
      Printexc.raise_with_backtrace e bt

let pp ppf t = Wfs_history.History.pp ppf (history t)
