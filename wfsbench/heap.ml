(* The program's peak memory, reported as [peak_heap_mb].  It counts
   the program's data, not the benchmark's: the benchmark's own arrays,
   expectation data and host kernel tables are left out. *)

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. float_of_int (1 lsl 20)

(* Serving: the words reachable from the service handle (the log window
   behind the frontier, its snapshots and the object's state), sampled
   between passes when no client runs; the peak over the run.  A
   truncation that stops keeping up grows it. *)
type retained = { mutable peak : int }

let retained () = { peak = 0 }
let sample r handle = r.peak <- max r.peak (Obj.reachable_words (Obj.repr handle))
let retained_mb r = words_mb r.peak

(* Checking: nothing of the program survives a pass (the solver's
   arenas and transposition store and the explorer's intern tables are
   garbage once a verdict is out), so the measure is how far the major
   heap's high-water mark rises during the timed passes above the heap
   that set-up left behind.  A store or table that grows grows it. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let growth_mb ~since = words_mb ((Gc.quick_stat ()).Gc.top_heap_words - since)
