(** The one event store of [lib/obs]: per-domain bounded rings of flat,
    off-heap slots, shared by {!Profile}'s spans, instants and counters
    and {!Causal}'s invocation phases and help edges — with their single
    lifecycle and their two exports.

    - {!to_json} / {!write}: one Chrome/Perfetto trace ([ui.perfetto.dev]
      or [chrome://tracing]), one [tid] row per OCaml domain: spans as
      balanced ["B"]/["E"] pairs, ["i"] instants, ["C"] counters,
      completed invocations as ["X"] slices and help edges as
      ["s"]/["f"] flow arrows between domain rows;
    - {!dump_jsonl}: the same recording as one JSON object per line —
      the crash flight recorder and [wfs stats --trace].

    Cost model: disabled (the default), every recording entry point of
    {!Profile} and {!Causal} is one load and branch.  Enabled, an event
    is one slot write into the calling domain's own ring: no lock, no
    allocation, no write barrier, and storage the major GC never scans.
    Wraparound drops the oldest events; a span occupies one slot
    (written when it ends), so wraparound never tears it.

    Concurrency contract: recording is safe from any domain.  {!enable},
    {!reset} and the exports should run at quiescence; a flight-recorder
    dump that races a straggler loses at most that one event. *)

type args = (string * Json.t) list

(** {1 Lifecycle} *)

(** Start recording into fresh rings of [ring_capacity] (default 65536)
    events per domain, sampling one causal invocation in [sample]
    (default 64, rounded up to a power of two).  Implies {!reset}. *)
val enable : ?ring_capacity:int -> ?sample:int -> unit -> unit

(** Stop recording; the rings keep their contents for export. *)
val disable : unit -> unit

val enabled : unit -> bool

(** Drop every recorded event, registered object and issued trace id. *)
val reset : unit -> unit

(** The effective causal sampling period (a power of two). *)
val sample_every : unit -> int

(** {1 Introspection} *)

type kind =
  | Span
  | Instant
  | Counter
  | Invoke
  | Announce
  | Claim
  | Help
  | Complete

(** One decoded slot.  [a]/[b]/[c] are kind-specific:
    {v
    Span      ts=start, seq=begin seq, a=end ts, b=end seq
    Invoke    a=pid
    Announce  a=pid, b=born (frontier seq at announce)
    Claim     a=winning node id, b=linearization position
    Help      trace=helped id, a=helper id (-1: anonymous), b=helped's position
    Complete  a=position, b=own steps, c=help rounds
    v}
    [name] is the span/instant/counter name, or the causal event's
    object label; [cat] is [""] when absent; a counter's series are its
    [args]; [trace] is [-1] on non-causal kinds. *)
type event = {
  kind : kind;
  dom : int;
  seq : int;
  ts : int;
  name : string;
  cat : string;
  trace : int;
  a : int;
  b : int;
  c : int;
  args : args;
}

(** A registered served object: [n] processes, audited own-step bound.
    Kept outside the rings so it survives wraparound. *)
type meta_entry = { m_obj : string; m_n : int; m_bound : int }

(** One domain's ring, oldest event first. *)
type row = { tid : int; dropped : int; events : event list }

(** Registered objects (registration order) and every domain's ring,
    by ascending [tid]. *)
val snapshot : unit -> meta_entry list * row list

(** Events currently held, summed over domains. *)
val recorded : unit -> int

(** Events lost to wraparound, summed over domains. *)
val dropped : unit -> int

(** Help edges currently held, summed over domains. *)
val help_edges : unit -> int

(** {1 Export} *)

val to_json : unit -> Json.t

(** {!to_json} pretty-printed to [path]. *)
val write : string -> unit

(** Object registrations, then every event in time order, one JSON
    object per line, to [path].  Returns the number of lines. *)
val dump_jsonl : string -> int

(** {1 Record path}

    Shared by {!Profile} and {!Causal}; everything else records through
    them. *)

val on : bool ref

(** The causal sampling mask while enabled, [-1] when disabled. *)
val trace_gate : int ref

val sample_mask : int ref

(** The next causal trace id. *)
val ids : int Atomic.t

(** A [begin_] whose [end_] has not happened yet: it lives on its
    domain's stack and enters the ring only once completed. *)
type open_span = {
  o_name : string;
  o_cat : string option;
  o_t0 : int;
  o_bseq : int;
  o_args : args;
}

type slots = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type dstate = {
  domain : int;
  mutable slots : slots;
  mutable args : args array;
  mutable pos : int;
  mutable filled : int;
  mutable overwritten : int;
  mutable helps : int;
  mutable seq : int;
  mutable current : int;
  mutable open_spans : open_span list;
  mutable names : (string * int) list;
}

(** The calling domain's ring, registered on first use. *)
val self : unit -> dstate

(** Take the domain's next sequence number. *)
val next_seq : dstate -> int

(** Record a {!Span}, {!Instant} or {!Counter}. *)
val record :
  dstate ->
  kind ->
  ts:int ->
  seq:int ->
  name:string ->
  cat:string option ->
  int ->
  int ->
  args ->
  unit

(** Record a causal event, stamped now. *)
val record_causal :
  dstate -> kind -> obj:string -> trace:int -> int -> int -> int -> unit

(** Register (or re-register) a served object. *)
val register : meta_entry -> unit
