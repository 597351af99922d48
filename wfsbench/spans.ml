(* In-memory spans recorded by the traced run around each call into a
   layer.  Every recording domain owns one ring of fixed capacity
   (flat int storage, no allocation per span); when a ring wraps the
   oldest spans are dropped but still counted.  The rings are written
   out as Chrome trace_event JSON once the run is over. *)

let fields = 5 (* name, start, stop, parent, request *)
let capacity = 1 lsl 14

type ring = { tid : int; buf : int array; mutable recorded : int }

type t = { names : string array; rings : ring array }

(* [create ~names ~domains] prepares one ring per recording domain;
   span names are indices into [names]. *)
let create ~names ~domains =
  {
    names;
    rings =
      Array.init domains (fun tid ->
          { tid; buf = Array.make (capacity * fields) 0; recorded = 0 });
  }

(* Only the ring's owning domain may record into it.  [parent] names the
   enclosing span by its [req] (a pass span's [req] is the pass
   number); [req] identifies the request within its parent. *)
let record ring ~name ~start ~stop ~parent ~req =
  let slot = ring.recorded land (capacity - 1) in
  let b = ring.buf and o = slot * fields in
  b.(o) <- name;
  b.(o + 1) <- start;
  b.(o + 2) <- stop;
  b.(o + 3) <- parent;
  b.(o + 4) <- req;
  ring.recorded <- ring.recorded + 1

let recorded t = Array.fold_left (fun acc r -> acc + r.recorded) 0 t.rings

(* Write the retained spans as Chrome trace_event "X" events (one tid
   row per recording domain), timestamps rebased to the earliest span. *)
let write t path =
  let retained r = min r.recorded capacity in
  let origin = ref max_int in
  Array.iter
    (fun r ->
      for s = 0 to retained r - 1 do
        origin := min !origin r.buf.((s * fields) + 1)
      done)
    t.rings;
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  Array.iter
    (fun r ->
      for s = 0 to retained r - 1 do
        let o = s * fields in
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,\"req\":%d}}"
          t.names.(r.buf.(o)) r.tid
          (float_of_int (r.buf.(o + 1) - !origin) /. 1e3)
          (float_of_int (r.buf.(o + 2) - r.buf.(o + 1)) /. 1e3)
          r.buf.(o + 3) r.buf.(o + 4)
      done)
    t.rings;
  Printf.fprintf oc "],\"recorded\":%d,\"retained_per_ring\":%d}\n" (recorded t) capacity;
  close_out oc
