(** Consensus objects on multicore OCaml. *)

(** Single-shot n-process consensus from compare-and-swap (Theorem 7):
    first proposal installed wins; every caller returns the winner. *)
module One_shot : sig
  type 'a t

  val make : unit -> 'a t
  val decide : 'a t -> 'a -> 'a
  val peek : 'a t -> 'a option

  (** A preallocated decision a decided cell can be overwritten with. *)
  type 'a tombstone

  val tombstone : 'a -> 'a tombstone

  (** [retire t tomb] overwrites the decided cell [t] with [tomb]: the
      cell drops its reference to the winner, and every later {!decide}
      returns the tombstone's value and installs nothing.  Raises
      [Invalid_argument] when [t] is undecided. *)
  val retire : 'a t -> 'a tombstone -> unit
end

(** Two-process consensus from test-and-set (Theorem 4). *)
module Tas_two : sig
  type 'a t

  val make : unit -> 'a t

  (** [decide t ~pid v] with [pid] in [{0, 1}]. *)
  val decide : 'a t -> pid:int -> 'a -> 'a
end

(** The paper's unbounded [consensus[k]] array, grown lock-free in
    chunks. *)
module Unbounded : sig
  type 'a t

  val make : unit -> 'a t
  val round : 'a t -> int -> 'a One_shot.t
  val decide : 'a t -> round:int -> 'a -> 'a
end
