(** Set, counter and key→value map objects.

    The set's state is kept sorted so equal abstract sets have equal
    representations; its argumentless [remove] is made deterministic by
    removing the least element (the paper's own recipe for implementing a
    non-deterministic operation with a deterministic choice, §4.1). *)

val empty_result : Value.t

(** {1 Invocation builders} *)

val insert : Value.t -> Op.t

(** Remove the least element (deterministic non-specific remove). *)
val remove : Op.t

(** Remove a specific element; result says whether it was present. *)
val remove_elt : Value.t -> Op.t

val member : Value.t -> Op.t
val size : Op.t
val incr : Op.t
val decr : Op.t
val read : Op.t

(** {1 Objects} *)

val set :
  ?name:string -> ?initial:Value.t list -> elements:Value.t list -> unit ->
  Object_spec.t

(** Shared counter whose [incr]/[decr] return the new value. *)
val counter : ?name:string -> ?init:int -> unit -> Object_spec.t

val put : Value.t -> Value.t -> Op.t
val get : Value.t -> Op.t
val del : Value.t -> Op.t

(** Key→value map whose state is a list of [Pair (k, v)] bindings with
    strictly increasing keys (by {!Value.compare}); [put] and [del]
    return the displaced value (⊥, encoded as {!Value.none}, for an
    absent key).  The third default object of the universal object
    service.

    Cost model: [apply] works on that encoding directly.  [get] is
    O(rank of the key) — it stops at the first key not below its target
    — and allocates only its result, never state.  [put] and [del] make
    one pass of the same length, rebuilding only the bindings before the
    key and sharing the rest; [put] reuses its own argument pair as the
    new binding, and [del] of an unbound key returns the state itself.

    Raises [Invalid_argument] naming the key when [initial] binds a key
    twice. *)
val kv_map :
  ?name:string ->
  ?initial:(Value.t * Value.t) list ->
  ?keys:Value.t list ->
  ?values:Value.t list ->
  unit ->
  Object_spec.t
