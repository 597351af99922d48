(* Span vocabulary over {!Ring}: a completed span is ONE slot, written
   at end time, carrying both endpoints' timestamps and sequence
   numbers; a span still open lives on its domain's stack. *)

type args = Ring.args

let enabled () = !Ring.on
let force = function None -> [] | Some f -> f ()

let begin_ ?cat ?args name =
  if !Ring.on then begin
    let d = Ring.self () in
    let o_bseq = Ring.next_seq d in
    let o_args = force args in
    d.open_spans <-
      { o_name = name; o_cat = cat; o_t0 = Clock.now_ns (); o_bseq; o_args }
      :: d.open_spans
  end

let end_ () =
  if !Ring.on then
    let d = Ring.self () in
    match d.open_spans with
    | [] -> () (* enabled mid-span, or an unmatched end_: ignore *)
    | o :: rest ->
        d.open_spans <- rest;
        let t1 = Clock.now_ns () in
        Ring.record d Span ~ts:o.o_t0 ~seq:o.o_bseq ~name:o.o_name ~cat:o.o_cat
          t1 (Ring.next_seq d) o.o_args

let span ?cat ?args name f =
  if not !Ring.on then f ()
  else begin
    begin_ ?cat ?args name;
    match f () with
    | v ->
        end_ ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_ ();
        Printexc.raise_with_backtrace e bt
  end

let complete ?cat ?args name ~t0_ns =
  if !Ring.on then begin
    let d = Ring.self () in
    let t1 = Clock.now_ns () in
    let bseq = Ring.next_seq d in
    Ring.record d Span ~ts:t0_ns ~seq:bseq ~name ~cat t1 (Ring.next_seq d)
      (force args)
  end

let instant ?cat ?args name =
  if !Ring.on then begin
    let d = Ring.self () in
    Ring.record d Instant ~ts:(Clock.now_ns ()) ~seq:(Ring.next_seq d) ~name
      ~cat 0 0 (force args)
  end

let counter name values =
  if !Ring.on then begin
    let d = Ring.self () in
    Ring.record d Counter ~ts:(Clock.now_ns ()) ~seq:(Ring.next_seq d) ~name
      ~cat:None 0 0
      (List.map (fun (k, v) -> (k, Json.float v)) values)
  end
