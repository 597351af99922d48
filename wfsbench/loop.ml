(* How every workload is driven: repeated set-ups, then passes until
   the measured time is up. *)

let time f =
  let t0 = Nclock.now () in
  let x = f () in
  (x, Nclock.now () - t0)

let setups = 5

(* [setups] set-ups one after another: the last one's result, and the
   median set-up time in seconds.  Each earlier result is given to
   [discard] before the next set-up starts, untimed, so no two set-ups'
   domains are alive at once. *)
let setup_median ?(discard = ignore) setup =
  let rec go k kept times =
    if k = setups then (Option.get kept, Stats.median times)
    else begin
      Option.iter discard kept;
      let x, ns = time setup in
      go (k + 1) (Some x) ((float_of_int ns *. 1e-9) :: times)
    end
  in
  go 0 None []

(* [f k] for passes [k = 0, 1, ...] until [seconds] have elapsed, and at
   least [min_passes] of them: the results of those that returned, in
   order.  A pass that raises counts as a failed check.  [between] runs
   before each pass and after the last. *)
let passes (r : Report.t) ?(between = ignore) ~seconds ~min_passes f =
  let deadline = Nclock.now () + int_of_float (seconds *. 1e9) in
  let rec go k acc =
    between ();
    if k >= min_passes && Nclock.now () >= deadline then List.rev acc
    else
      match Report.guard r "pass" (fun () -> f k) with
      | Some x -> go (k + 1) (x :: acc)
      | None -> go (k + 1) acc
  in
  go 0 []
