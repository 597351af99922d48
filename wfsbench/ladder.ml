(* Layer probes: each times calls into one layer's public functions in
   isolation, so adjacent rungs of the serving path can be compared.
   Every probe reports the median of [reps] repetitions in ns per call. *)

open Wfs
module Cas = Runtime.Primitives.Cas
module One_shot = Runtime.Consensus.One_shot

let reps = 5

let ns_per ~iters f =
  Stats.median_of reps (fun () ->
      let t0 = Nclock.now () in
      f iters;
      float_of_int (Nclock.now () - t0) /. float_of_int iters)

(* Both domains run [f iters] together; ns per call as seen by one. *)
let ns_per_contended ~iters f =
  Stats.median_of reps (fun () ->
      let t0 = Nclock.now () in
      ignore (Runtime.Primitives.run_domains 2 (fun _ -> f iters));
      float_of_int (Nclock.now () - t0) /. float_of_int iters)

let cas_loop c n =
  for i = 0 to n - 1 do
    ignore (Cas.compare_and_set c i (i + 1))
  done

let cas_incr_loop c n =
  for _ = 1 to n do
    let rec go () =
      let v = Cas.read c in
      if not (Cas.compare_and_set c v (v + 1)) then go ()
    in
    go ()
  done

let obs_clock_loop n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Obs.Clock.now_ns ()))
  done

(* Probes of the layers every workload sits on: the clock, the
   primitive, consensus and [Obs.Clock]. *)
let common (r : Report.t) =
  Report.metric r "bench.clock_read_ns" "ns" (Nclock.read_cost_ns ~reads:1_000_000);
  Report.metric r "primitives.cas_ns" "ns"
    (ns_per ~iters:2_000_000 (fun n -> cas_loop (Cas.make 0) n));
  let decide_iters = 500_000 in
  Report.metric r "consensus_rt.decide_ns" "ns"
    (Stats.median_of reps (fun () ->
         let objs = Array.init decide_iters (fun _ -> One_shot.make ()) in
         let t0 = Nclock.now () in
         Array.iteri (fun i o -> ignore (One_shot.decide o i)) objs;
         float_of_int (Nclock.now () - t0) /. float_of_int decide_iters));
  Report.metric r "obs.clock_now_ns" "ns" (ns_per ~iters:1_000_000 obs_clock_loop);
  Report.metric r "primitives.cas_contended_ns" "ns"
    (let c = Cas.make 0 in
     ns_per_contended ~iters:1_000_000 (fun n -> cas_incr_loop c n));
  Report.metric r "obs.clock_now_contended_ns" "ns"
    (ns_per_contended ~iters:500_000 obs_clock_loop)

module Value_seq (S : sig
  val spec : Object_spec.t
end) =
struct
  type state = Value.t
  type op = Op.t
  type res = Value.t

  let init = S.spec.Object_spec.init
  let apply s o = Object_spec.apply S.spec s o
end

(* The serving ladder on one op stream: the sequential spec alone on a
   live state, the wait-free construction called directly, and the
   same construction behind a [Service] handle — all on one domain. *)
let serving (r : Report.t) ~spec ~live ~(ops : Op.t array) =
  let iters = Array.length ops in
  Report.metric r "spec.apply_ns" "ns"
    (ns_per ~iters (fun n ->
         let s = ref live in
         for i = 0 to n - 1 do
           s := fst (Object_spec.apply spec !s ops.(i))
         done));
  let module U = Runtime.Universal.Wait_free (Value_seq (struct
    let spec = spec
  end)) in
  let direct () =
    let u = U.create ~n:1 () in
    ns_per ~iters (fun n ->
        for i = 0 to n - 1 do
          ignore (U.apply_pos u ~pid:0 ops.(i))
        done)
  in
  let service () =
    let h = Runtime.Service.make_handle ~n:1 spec in
    ns_per ~iters (fun n ->
        for i = 0 to n - 1 do
          ignore (h.apply_pos ~pid:0 ops.(i))
        done)
  in
  (* interleaved, so drift hits both rungs alike *)
  let pairs = List.init 3 (fun _ -> let d = direct () in (d, service ())) in
  Report.metric r "universal_rt.apply_ns" "ns" (Stats.median (List.map fst pairs));
  Report.metric r "service.apply_ns" "ns" (Stats.median (List.map snd pairs))
