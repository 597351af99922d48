(* CLOCK_MONOTONIC through bechamel's allocation-free [noalloc] stub:
   nanosecond resolution, never steps backwards, and system-wide, so
   reads from different domains are comparable without any clamp. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let elapsed_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
