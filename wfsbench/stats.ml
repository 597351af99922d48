(* Order statistics over measured samples. *)

(* Nearest-rank quantile of a non-empty ascending array. *)
let quantile_sorted a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median (xs : float list) =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let maximum = List.fold_left Float.max neg_infinity

(* Median of [k] repetitions of a measurement. *)
let median_of k f = median (List.init k (fun _ -> f ()))
