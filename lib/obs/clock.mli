(** The one clock of [lib/obs]: [CLOCK_MONOTONIC] in nanoseconds. *)

(** Nanoseconds since an arbitrary (boot-time) epoch; non-decreasing
    across calls, including calls from different domains. *)
val now_ns : unit -> int

(** [elapsed_ns f] runs [f] and returns its result with the elapsed
    nanoseconds. *)
val elapsed_ns : (unit -> 'a) -> 'a * int
