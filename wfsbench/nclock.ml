(* The benchmark's own clock: CLOCK_MONOTONIC in nanoseconds, read
   through bechamel's allocation-free stub.  Latencies are never taken
   from [Wfs.Obs.Clock.now_ns], which is microsecond [gettimeofday]
   behind a process-global CAS clamp. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Mean cost of one read, over [reads] back-to-back reads. *)
let read_cost_ns ~reads =
  let t0 = now () in
  for _ = 1 to reads do
    ignore (Sys.opaque_identity (now ()))
  done;
  float_of_int (now () - t0) /. float_of_int reads

(* The smallest positive step seen between consecutive reads: an upper
   bound on the clock's resolution. *)
let resolution_ns ~reads =
  let best = ref max_int and prev = ref (now ()) in
  for _ = 1 to reads do
    let t = now () in
    if t > !prev && t - !prev < !best then best := t - !prev;
    prev := t
  done;
  !best
