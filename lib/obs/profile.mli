(** Named, timestamped spans, instants and counters, recorded into the
    calling domain's {!Ring} and exported by {!Ring.write} as Chrome
    trace-event JSON: one row per domain, spans as balanced [B]/[E]
    pairs.

    Disabled (the default), every entry point is one branch on
    {!Ring.on}: argument thunks are not forced, no clock is read,
    nothing allocates beyond the closure at the call site.  Enabled, a
    span costs two {!Clock.now_ns} reads and one ring slot, written when
    it ends — so wraparound drops whole spans, oldest first, and spans
    still open at export time are not exported. *)

type args = Ring.args

(** {!Ring.enabled}: the one-branch gate. *)
val enabled : unit -> bool

(** [span ?cat ?args name f] runs [f] inside a span.  The [args] thunk
    is forced only when recording.  Exceptions close the span and
    propagate. *)
val span : ?cat:string -> ?args:(unit -> args) -> string -> (unit -> 'a) -> 'a

(** Open a span on the calling domain's stack.  Every [begin_] must be
    matched by an {!end_} on the same domain ([span] does this for
    you). *)
val begin_ : ?cat:string -> ?args:(unit -> args) -> string -> unit

(** Close the most recent open span on the calling domain.  No-op when
    the stack is empty (e.g. recording was enabled mid-span). *)
val end_ : unit -> unit

(** [complete ?cat ?args name ~t0_ns] records a span that started at
    [t0_ns] and ends now, bypassing the begin/end stack — for waits
    whose start predates knowing whether they are interesting (pool
    idle time).  [t0_ns] must not predate any event already recorded
    by this domain, or the exported timeline clamps it. *)
val complete : ?cat:string -> ?args:(unit -> args) -> string -> t0_ns:int -> unit

(** A zero-duration instant event on the calling domain's row. *)
val instant : ?cat:string -> ?args:(unit -> args) -> string -> unit

(** [counter name values] records a counter sample (rendered by
    Perfetto as a track of stacked series). *)
val counter : string -> (string * float) list -> unit
