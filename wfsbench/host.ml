(* Host speed: a fixed reference kernel, timed between passes.  The
   machine the benchmark runs on is shared, and its speed drifts by
   tens of percent over minutes; a pass's time divided by the kernel's
   time measured beside it cancels that drift.  The kernel is the
   benchmark's own code, so no change to the program moves it.

   The kernel never allocates, and its tables live off the OCaml heap:
   it can neither pay the major-GC work the program's garbage left
   behind nor mark the program's heap, so how much the program
   allocates or keeps alive cannot change the kernel's time.  It mixes
   a dependent pointer chase through 4 MB (memory latency), a
   read-modify-write walk over 256 KB with data-dependent branches
   (cache and branch predictor), and a multiply-xorshift chain (ALU). *)

open Bigarray

let ints n = Array1.create int c_layout n

(* A random cyclic permutation of 2^19 slots, built once, without
   touching the OCaml heap. *)
let chase =
  lazy
    (let n = 1 lsl 19 in
     let perm = ints n in
     for i = 0 to n - 1 do
       Array1.unsafe_set perm i i
     done;
     let rng = Random.State.make [| 0xca1b |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng (i + 1) in
       let x = Array1.unsafe_get perm i in
       Array1.unsafe_set perm i (Array1.unsafe_get perm j);
       Array1.unsafe_set perm j x
     done;
     let next = ints n in
     for i = 0 to n - 1 do
       Array1.unsafe_set next (Array1.unsafe_get perm i) (Array1.unsafe_get perm ((i + 1) mod n))
     done;
     next)

let scratch_mask = (1 lsl 15) - 1
let scratch = lazy (ints (scratch_mask + 1))

let kernel () =
  let next = Lazy.force chase and scratch = Lazy.force scratch in
  Array1.fill scratch 0;
  let p = ref 0 in
  for _ = 1 to 150_000 do
    p := Array1.unsafe_get next !p
  done;
  let h = ref (!p lor 1) in
  for i = 1 to 1_500_000 do
    let j = !h land scratch_mask in
    let v = Array1.unsafe_get scratch j in
    Array1.unsafe_set scratch j (v + i);
    if v land 1 = 0 then h := (!h * 0x2545F4914F6CDD1D) + v
    else h := !h lxor (!h lsr 17) lxor (v lsl 3)
  done;
  ignore (Sys.opaque_identity !h)

(* The kernel's time on the 2-vCPU VM the benchmark was written on,
   when lightly loaded (measured with [--calibrate]); normalised metrics
   read as if measured then.  The
   kernel runs on the calling domain only: on two domains at once it
   also measures whether the host runs both vCPUs together, which
   added more noise than it removed. *)
let nominal_ns = 30e6

(* Kernel samples taken through a run, newest first; [create] takes
   the first. *)
type t = { mutable samples : float list }

let sample ?(times = 1) t =
  for _ = 1 to times do
    let t0 = Nclock.now () in
    kernel ();
    t.samples <- float_of_int (Nclock.now () - t0) :: t.samples
  done

let create () =
  ignore (Lazy.force chase);
  ignore (Lazy.force scratch);
  let t = { samples = [] } in
  sample t;
  t

(* [beside t f] is [f ()], its time in ns, and how much slower than
   nominal the host ran meanwhile: the mean of the kernel samples just
   before and just after [f].  The sample after is taken here; the one
   before is the previous call's, or [create]'s. *)
let beside t f =
  let before = List.hd t.samples in
  let t0 = Nclock.now () in
  let x = f () in
  let ns = Nclock.now () - t0 in
  sample t;
  (x, ns, (before +. List.hd t.samples) /. (2. *. nominal_ns))

(* The host's slowdown over the whole run: the median of every sample,
   so one noisy sample moves nothing. *)
let slowdown t = Stats.median t.samples /. nominal_ns
