(** The universal object service: named {!Wfs_spec.Object_spec} objects
    (queue, counter, map by default) served by the batched + truncating
    wait-free construction, with a closed-loop load harness whose runs
    are checked — differentially against the sequential specification
    when crash-free, with the exhaustive linearizability checker when
    crashes are injected. *)

open Wfs_spec

(** One served object: a sequential specification lifted to a
    linearizable wait-free shared object.  All accessors are
    thread-safe. *)
type handle = {
  spec : Object_spec.t;
  apply : pid:int -> Op.t -> Value.t;
  apply_pos : pid:int -> Op.t -> Value.t * int;
      (** result plus linearization position *)
  length : unit -> int;  (** operations threaded so far *)
  retained : unit -> int;  (** log nodes reachable behind the frontier *)
  watermark : unit -> int;  (** §4.1 reclamation watermark *)
  tickets : unit -> int;
  obj_window : int;
}

(** Lift one specification (processes [0..n-1]).  [canary] is forwarded
    to the construction's help canary (see
    {!Runtime.Universal_rt.Wait_free.create}); the object is labelled
    with its spec name in causal trace events. *)
val make_handle : ?window:int -> ?canary:int -> n:int -> Object_spec.t -> handle

(** The default registry contents: FIFO queue, counter, kv-map. *)
val default_specs : unit -> Object_spec.t list

type t

(** [create ?window ?canary ~n ?specs ()] builds a registry of served
    objects; object names must be distinct. *)
val create :
  ?window:int -> ?canary:int -> n:int -> ?specs:Object_spec.t list -> unit -> t

val names : t -> string list

(** Raises [Invalid_argument] for unknown names. *)
val find : t -> string -> handle

module Load : sig
  type report = {
    spec_name : string;
    clients : int;
    ops_per_client : int;
    total_ops : int;
    window : int;
    duration_ns : int;
    throughput : float;
    lat_p50_ns : int;
    lat_p95_ns : int;
    lat_p99_ns : int;
    lat_max_ns : int;
    log_length : int;
    max_retained : int;
    final_watermark : int;
    promoted_words_per_op : float;
        (** words promoted to the major heap per completed operation,
            from [Gc.quick_stat] around the clients *)
    major_collections : int;  (** major GC cycles during the clients' run *)
    halted : int list;
    differential_ok : bool option;  (** crash-free runs *)
    linearizable : bool option;  (** crash runs *)
  }

  (** [run ~clients ~ops_per_client ()] drives one object (default: the
      counter) from [clients] closed-loop client domains.  With
      [halts = 0] every operation's result and linearization position
      are recorded and replayed against the sequential spec; with
      [halts = k > 0] clients [0..k-1] halt mid-operation and the
      recorded history is checked for linearizability instead (the
      workload must fit {!Wfs_history.Linearizability.max_ops}).
      Deterministic for a fixed [seed].  [canary] routes every
      [canary]-th announce ticket through the helped slow path while
      causal tracing is enabled (for recording help edges on machines
      that time-slice domains); it does not change results. *)
  val run :
    ?seed:int ->
    ?window:int ->
    ?halts:int ->
    ?spec:Object_spec.t ->
    ?canary:int ->
    clients:int ->
    ops_per_client:int ->
    unit ->
    report

  (** Differential / linearizability verdicts hold, the retained window
      stayed within its bound, and the watermark advanced. *)
  val passed : report -> bool

  val pp_report : report Fmt.t
end

type serve_report = {
  served_ops : int;
  serve_duration_ns : int;
  per_object : (string * int) list;
}

(** [serve ~clients ~duration_s ()] drives a fresh service's objects
    round-robin from [clients] domains until the deadline — the
    open-ended mode behind [wfs serve], meant to be watched live via
    the metrics sampler. *)
val serve :
  ?seed:int ->
  ?window:int ->
  ?canary:int ->
  ?specs:Object_spec.t list ->
  clients:int ->
  duration_s:float ->
  unit ->
  serve_report
