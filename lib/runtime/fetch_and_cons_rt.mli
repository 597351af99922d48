(** Fetch-and-cons on multicore OCaml: CAS retry loop (lock-free),
    single atomic exchange (Figures 4-3/4-4, wait-free O(1)), and
    consensus rounds (Figure 4-5, wait-free O(n)). *)

(** Persistent list under a CAS loop. *)
module Cas_based : sig
  type 'a t

  val make : unit -> 'a t

  (** Returns the previous contents (the items following the new one). *)
  val fetch_and_cons : 'a t -> 'a -> 'a list

  val contents : 'a t -> 'a list
end

(** The paper's constant-time construction: one [Atomic.exchange] on an
    anchor; the swapped-out head is the result. *)
module Swap_based : sig
  type 'a link
  type 'a t

  val make : unit -> 'a t

  (** O(1): the exchange itself yields the result chain. *)
  val fetch_and_cons_cells : 'a t -> 'a -> 'a link

  (** Materialize a chain (waits out momentarily-unlinked cdrs). *)
  val to_list : 'a link -> 'a list

  val fetch_and_cons : 'a t -> 'a -> 'a list
  val contents : 'a t -> 'a list
end

(** Fetch-and-cons from at most n+1 consensus rounds per operation —
    the runtime port of {!Wfs_universal.Consensus_fac}. *)
module Rounds : sig
  type 'a t
  type 'a handle

  (** Items must be pairwise distinct under [equal] (tag them). *)
  val make : n:int -> equal:('a -> 'a -> bool) -> 'a t

  val handle : 'a t -> pid:int -> 'a handle
  val fetch_and_cons : 'a handle -> 'a -> 'a list
end
