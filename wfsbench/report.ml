(* The result of one run: checks attempted and failed, and named
   metrics with their unit and sample count. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string * int) list;  (* reversed *)
}

let create () = { attempted = 0; failed = 0; metrics = [] }

(* [checks r what ~attempted ~failed] records a batch of checks. *)
let checks r what ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed;
  if failed > 0 then Printf.eprintf "check failed: %s (%d of %d)\n%!" what failed attempted

let check r what ok = checks r what ~attempted:1 ~failed:(if ok then 0 else 1)

(* [guard r what f] is [Some (f ())]; an exception the program raises
   is a failed check (reported with its backtrace), not a crash of the
   run. *)
let guard r what f =
  match f () with
  | v -> Some v
  | exception e ->
      let bt = Printexc.get_backtrace () in
      check r (what ^ " raised " ^ Printexc.to_string e) false;
      prerr_string bt;
      None

let metric r ?(samples = 1) name unit value =
  r.metrics <- (name, value, unit, samples) :: r.metrics

(* An end-to-end metric normalised to the nominal host speed, with the
   raw value printed beside it. *)
let normalised r ?samples name unit ~raw value =
  Printf.printf "%-40s %16.6g %-8s raw, before host normalisation\n" name raw unit;
  metric r ?samples name unit value

let host_line (host : Host.t) =
  Printf.printf "host slowdown %.4f (reference kernel, %d samples, nominal %.0f ns)\n"
    (Host.slowdown host) (List.length host.Host.samples) Host.nominal_ns

(* Snapshots of the program's own metrics counters, by name. *)
let counters names =
  List.map (fun n -> (n, float_of_int (Option.value ~default:0 (Wfs.Obs.Metrics.counter_value n)))) names

let delta c0 c1 name = List.assoc name c1 -. List.assoc name c0

let error_rate r =
  if r.attempted = 0 then 1. else float_of_int r.failed /. float_of_int r.attempted

(* Human-readable lines, then the machine-readable result as the last
   line of standard output. *)
let print r =
  let metrics = List.rev r.metrics in
  List.iter
    (fun (name, value, unit, samples) ->
      Printf.printf "%-40s %16.6g %-8s samples=%d\n" name value unit samples)
    metrics;
  Printf.printf "%-40s %16.6g %-8s checks=%d failed=%d\n" "error_rate"
    (error_rate r) "ratio" r.attempted r.failed;
  let open Wfs.Obs.Json in
  let value v = if Float.is_finite v then float v else null in
  print_endline
    (to_string
       (obj
          [
            ("correct", bool (r.failed = 0 && r.attempted > 0));
            ("attempted", int r.attempted);
            ("failed", int r.failed);
            ( "metrics",
              obj
                (List.map
                   (fun (name, v, unit, _) ->
                     (name, obj [ ("value", value v); ("unit", str unit) ]))
                   metrics) );
          ]))
