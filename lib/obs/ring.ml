(* The one event store: per-domain rings of flat off-heap slots.

   Record path: each domain owns a [dstate] reached through
   [Domain.DLS] (registered once in [all] under [reg_lock]) and writes
   only its own ring, so recording takes no lock and contends with
   nobody.  Wraparound drops the oldest events — the ring IS the flight
   recorder: at any moment it holds the most recent context of every
   domain.

   Slots are flat unboxed int octets in a [Bigarray], not records in
   an OCaml array: a push allocates nothing and triggers no write
   barrier, and the storage lives outside the OCaml heap, so the major
   GC never scans it.  On the traced universal-service bench a
   boxed-record ring cost ~35% (per-event allocation plus re-marking
   tens of thousands of pointers every cycle), and even an unboxed
   [int array] ~20% from the GC sweeping megabytes of immediates.
   Slot layout, stride 8 (one cache line on 64-bit):
     [0] kind code   [1] ts (ns)   [2] interned name   [3] seq
     [4] trace, or the interned category (-1: none)
     [5] a           [6] b         [7] c
   Strings (span names, categories, object labels) intern to small
   ints; span/instant args and counter series are the one thing a slot
   cannot hold, so they go to a per-domain side array indexed like the
   slots, allocated the first time a domain records any — the causal
   path never touches it.

   Ordering: every event takes a per-domain sequence number at the
   moment it happens (a span at its begin and again at its end); the
   exporter orders each row by it, so nesting survives timestamp ties
   and a [Profile.complete] whose start predates earlier events. *)

type args = (string * Json.t) list

type kind =
  | Span
  | Instant
  | Counter
  | Invoke
  | Announce
  | Claim
  | Help
  | Complete

let kinds = [| Span; Instant; Counter; Invoke; Announce; Claim; Help; Complete |]

let code = function
  | Span -> 0
  | Instant -> 1
  | Counter -> 2
  | Invoke -> 3
  | Announce -> 4
  | Claim -> 5
  | Help -> 6
  | Complete -> 7

let kc_help = code Help
let is_causal kc = kc >= code Invoke

type event = {
  kind : kind;
  dom : int;
  seq : int;
  ts : int;
  name : string;
  cat : string;
  trace : int;
  a : int;
  b : int;
  c : int;
  args : args;
}

type meta_entry = { m_obj : string; m_n : int; m_bound : int }
type row = { tid : int; dropped : int; events : event list }

type open_span = {
  o_name : string;
  o_cat : string option;
  o_t0 : int;
  o_bseq : int;
  o_args : args;
}

type slots = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type dstate = {
  domain : int;
  mutable slots : slots; (* stride-8 slots, allocated on first push *)
  mutable args : args array; (* per-slot args, allocated on first use *)
  mutable pos : int; (* next slot index (not word index) *)
  mutable filled : int;
  mutable overwritten : int;
  mutable helps : int; (* Help slots currently held *)
  mutable seq : int;
  mutable current : int; (* trace id of this domain's in-flight invocation *)
  mutable open_spans : open_span list;
  mutable names : (string * int) list; (* physical-equality intern cache *)
}

let stride = 8

(* No zero-fill: [filled] bounds exactly which slots decode, so fresh
   memory is never read — and eagerly touching a multi-MB ring would
   bill megabytes of page faults to whichever event came first. *)
let alloc words : slots = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

let on = ref false
let capacity = ref 65536
let sample_mask = ref 63

(* [trace_gate] fuses "enabled" and the sampling mask into one word for
   the per-operation hot path: the mask while tracing, [-1] when off. *)
let trace_gate = ref (-1)
let ids = Atomic.make 0
let reg_lock = Mutex.create ()
let all : dstate list ref = ref []

(* guarded by [reg_lock], like the interner *)
let metas : meta_entry list ref = ref []
let interned : (string, int) Hashtbl.t = Hashtbl.create 64
let names_rev : (int, string) Hashtbl.t = Hashtbl.create 64

let dls =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          domain = (Domain.self () :> int);
          slots = alloc 0;
          args = [||];
          pos = 0;
          filled = 0;
          overwritten = 0;
          helps = 0;
          seq = 0;
          current = -1;
          open_spans = [];
          names = [];
        }
      in
      Mutex.protect reg_lock (fun () -> all := d :: !all);
      d)

let self () = Domain.DLS.get dls
let enabled () = !on

(* The slots survive a reset: [filled = 0] already makes stale contents
   undecodable, and re-allocating megabytes of custom-block storage on
   every enable both thrashes the allocator and — through the GC's
   dependent-memory accounting — speeds up major collections for the
   rest of the run.  A capacity change is picked up by [write].  The
   args array survives too: once it exists, [record] overwrites its
   slot on every span, instant and counter ([[]] when the event has no
   args) and causal events never decode it, so a previous run's args
   cannot resurface, and the first event with args after an [enable]
   does not re-allocate [capacity] slots inside the recorded run. *)
let clear d =
  d.pos <- 0;
  d.filled <- 0;
  d.overwritten <- 0;
  d.helps <- 0;
  d.seq <- 0;
  d.current <- -1;
  d.open_spans <- [];
  d.names <- []

let reset () =
  Mutex.protect reg_lock (fun () ->
      List.iter clear !all;
      metas := [];
      Hashtbl.reset interned;
      Hashtbl.reset names_rev);
  Atomic.set ids 0

let enable ?(ring_capacity = 65536) ?(sample = 64) () =
  (* a power-of-two period makes the per-op sampling check one mask *)
  let rec pow2 k = if k >= sample then k else pow2 (k * 2) in
  let k = pow2 1 in
  reset ();
  capacity := max 1 ring_capacity;
  sample_mask := k - 1;
  trace_gate := k - 1;
  on := true

let disable () =
  on := false;
  trace_gate := -1

let sample_every () = !sample_mask + 1

let next_seq d =
  let s = d.seq in
  d.seq <- s + 1;
  s

(* Recording sites pass the same literal or object label on every
   call, so the common case is a pointer compare on the cache head; a
   miss takes [reg_lock] once per (domain, string). *)
let intern d s =
  let rec find = function
    | (s', id) :: tl -> if s' == s then id else find tl
    | [] ->
        let id =
          Mutex.protect reg_lock (fun () ->
              match Hashtbl.find_opt interned s with
              | Some id -> id
              | None ->
                  let id = Hashtbl.length interned in
                  Hashtbl.add interned s id;
                  Hashtbl.add names_rev id s;
                  id)
        in
        d.names <- (s, id) :: d.names;
        id
  in
  find d.names

let write d kc ~ts ~seq name x a b c =
  let cap = !capacity in
  if Bigarray.Array1.dim d.slots <> cap * stride then begin
    (* a capacity change restarts the ring, so [pos] always indexes
       into it even if this domain recorded across a racing [enable] *)
    d.slots <- alloc (cap * stride);
    d.pos <- 0;
    d.filled <- 0;
    d.helps <- 0
  end;
  let s = d.slots and base = d.pos * stride in
  let full = d.filled = cap in
  if full && Bigarray.Array1.unsafe_get s base = kc_help then
    d.helps <- d.helps - 1;
  Bigarray.Array1.unsafe_set s base kc;
  Bigarray.Array1.unsafe_set s (base + 1) ts;
  Bigarray.Array1.unsafe_set s (base + 2) (intern d name);
  Bigarray.Array1.unsafe_set s (base + 3) seq;
  Bigarray.Array1.unsafe_set s (base + 4) x;
  Bigarray.Array1.unsafe_set s (base + 5) a;
  Bigarray.Array1.unsafe_set s (base + 6) b;
  Bigarray.Array1.unsafe_set s (base + 7) c;
  if kc = kc_help then d.helps <- d.helps + 1;
  let p = d.pos + 1 in
  d.pos <- (if p = cap then 0 else p);
  if full then d.overwritten <- d.overwritten + 1 else d.filled <- d.filled + 1

let record d kind ~ts ~seq ~name ~cat a b args =
  (match args with
  | [] when Array.length d.args = 0 -> ()
  | _ ->
      let cap = !capacity in
      if Array.length d.args <> cap then d.args <- Array.make cap [];
      d.args.(d.pos) <- args);
  let cat = match cat with None -> -1 | Some c -> intern d c in
  write d (code kind) ~ts ~seq name cat a b 0

let record_causal d kind ~obj ~trace a b c =
  write d (code kind) ~ts:(Clock.now_ns ()) ~seq:(next_seq d) obj trace a b c

let register m =
  Mutex.protect reg_lock (fun () ->
      metas := m :: List.filter (fun m' -> m'.m_obj <> m.m_obj) !metas)

let snapshot () =
  Mutex.protect reg_lock (fun () ->
      let name_of id =
        if id < 0 then ""
        else Option.value ~default:"?" (Hashtbl.find_opt names_rev id)
      in
      let row (d : dstate) =
        let cap = Bigarray.Array1.dim d.slots / stride in
        let get = Bigarray.Array1.get d.slots in
        let events =
          List.init d.filled (fun i ->
              let slot = (d.pos - d.filled + i + cap) mod cap in
              let base = slot * stride in
              (* [land 7]: a slot torn by a straggling writer still
                 decodes to some kind instead of raising *)
              let kc = get base land 7 in
              let causal = is_causal kc in
              {
                kind = kinds.(kc);
                dom = d.domain;
                ts = get (base + 1);
                name = name_of (get (base + 2));
                seq = get (base + 3);
                trace = (if causal then get (base + 4) else -1);
                cat = (if causal then "" else name_of (get (base + 4)));
                a = get (base + 5);
                b = get (base + 6);
                c = get (base + 7);
                args =
                  (if causal || Array.length d.args <> cap then []
                   else d.args.(slot));
              })
        in
        { tid = d.domain; dropped = d.overwritten; events }
      in
      ( List.rev !metas,
        List.map row (List.sort (fun a b -> compare a.domain b.domain) !all) ))

let sum f = Mutex.protect reg_lock (fun () -> List.fold_left (fun n d -> n + f d) 0 !all)
let recorded () = sum (fun d -> d.filled)
let dropped () = sum (fun d -> d.overwritten)
let help_edges () = sum (fun d -> d.helps)

(* ---------- Chrome/Perfetto export ----------

   Timestamps are rebased to the earliest event and exported as µs
   floats.  Each row's spans, instants, counters and causal phase
   instants are ordered by sequence number with timestamps clamped
   non-decreasing, which yields balanced, properly nested B/E pairs.
   Each completed invocation is an "X" slice on its owner's row
   (cat "causal.op"); an invoke without a completion (crash-interrupted
   or wraparound-torn) stays visible as a "causal.pending" instant.
   Each help edge is a flow pair: "s" on the helper's row at the help,
   "f" (bp "e") at the helped invocation's completion.  Registered
   objects are global "causal.meta" instants carrying [n] and the
   audited bound — what [wfs trace] reads back. *)
let to_json () =
  let metas, rows = snapshot () in
  let rows = List.filter (fun r -> r.events <> []) rows in
  let evs =
    List.concat_map (fun r -> r.events) rows
    |> List.stable_sort (fun x y -> compare x.ts y.ts)
  in
  let t_base = match evs with [] -> 0 | e :: _ -> e.ts in
  let pid = Unix.getpid () in
  let ev name ph ~tid ts fields =
    Json.obj
      (("name", Json.str name)
      :: ("ph", Json.str ph)
      :: ("ts", Json.float (float_of_int (ts - t_base) /. 1_000.))
      :: ("pid", Json.int pid)
      :: ("tid", Json.int tid)
      :: fields)
  in
  let m name tid arg =
    Json.obj
      [
        ("name", Json.str name);
        ("ph", Json.str "M");
        ("pid", Json.int pid);
        ("tid", Json.int tid);
        ("args", Json.obj [ ("name", Json.str arg) ]);
      ]
  in
  let header =
    m "process_name" 0 "wfs"
    :: List.map (fun r -> m "thread_name" r.tid (Fmt.str "domain-%d" r.tid)) rows
  in
  let meta_events =
    List.map
      (fun mt ->
        ev "causal.meta" "i" ~tid:0 t_base
          [
            ("s", Json.str "g");
            ("cat", Json.str "causal");
            ( "args",
              Json.obj
                [
                  ("obj", Json.str mt.m_obj);
                  ("n", Json.int mt.m_n);
                  ("bound", Json.int mt.m_bound);
                  ("sample", Json.int (sample_every ()));
                ] );
          ])
      metas
  in
  let first_of kind =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun (e : event) ->
        if e.kind = kind && not (Hashtbl.mem tbl e.trace) then
          Hashtbl.add tbl e.trace e)
      evs;
    tbl
  in
  let invoke_of = first_of Invoke and complete_of = first_of Complete in
  let cat e = if e.cat = "" then [] else [ ("cat", Json.str e.cat) ] in
  let args = function [] -> [] | a -> [ ("args", Json.obj a) ] in
  let causal_instant name (e : event) fields =
    [
      ( e.seq,
        e.ts,
        fun ts ->
          ev name "i" ~tid:e.dom ts
            [
              ("s", Json.str "t");
              ("cat", Json.str "causal");
              ("args", Json.obj (fields @ [ ("obj", Json.str e.name) ]));
            ] );
    ]
  in
  (* (seq, ts, render at clamped ts) *)
  let timeline (e : event) =
    match e.kind with
    | Span ->
        [
          (e.seq, e.ts, fun ts -> ev e.name "B" ~tid:e.dom ts (cat e @ args e.args));
          (e.b, e.a, fun ts -> ev e.name "E" ~tid:e.dom ts (cat e));
        ]
    | Instant ->
        [
          ( e.seq,
            e.ts,
            fun ts ->
              ev e.name "i" ~tid:e.dom ts
                (cat e @ (("s", Json.str "t") :: args e.args)) );
        ]
    | Counter -> [ (e.seq, e.ts, fun ts -> ev e.name "C" ~tid:e.dom ts (args e.args)) ]
    | Invoke when not (Hashtbl.mem complete_of e.trace) ->
        causal_instant "causal.pending" e
          [ ("trace", Json.int e.trace); ("pid", Json.int e.a) ]
    | Announce ->
        causal_instant "causal.announce" e
          [ ("trace", Json.int e.trace); ("pid", Json.int e.a); ("born", Json.int e.b) ]
    | Claim ->
        causal_instant "causal.claim" e
          [ ("trace", Json.int e.trace); ("node", Json.int e.a); ("pos", Json.int e.b) ]
    | Invoke | Help | Complete -> []
  in
  let row r =
    let last = ref min_int in
    List.concat_map timeline r.events
    |> List.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2)
    |> List.map (fun (_, ts, render) ->
           last := max !last ts;
           render !last)
  in
  let flow_id = ref 0 in
  let causal (e : event) =
    match e.kind with
    | Complete ->
        let t0, inv_pid =
          match Hashtbl.find_opt invoke_of e.trace with
          | Some i -> (min i.ts e.ts, i.a)
          | None -> (e.ts, -1)
        in
        [
          ev e.name "X" ~tid:e.dom t0
            [
              ("dur", Json.float (float_of_int (e.ts - t0) /. 1_000.));
              ("cat", Json.str "causal.op");
              ( "args",
                Json.obj
                  [
                    ("trace", Json.int e.trace);
                    ("pid", Json.int inv_pid);
                    ("pos", Json.int e.a);
                    ("own_steps", Json.int e.b);
                    ("help_rounds", Json.int e.c);
                    ("obj", Json.str e.name);
                  ] );
            ];
        ]
    | Help ->
        let id = !flow_id in
        incr flow_id;
        let flow ph ~tid ts extra =
          ev "help" ph ~tid ts
            (extra
            @ [
                ("cat", Json.str "causal");
                ("id", Json.int id);
                ( "args",
                  Json.obj
                    [
                      ("helper", Json.int e.a);
                      ("helped", Json.int e.trace);
                      ("pos", Json.int e.b);
                      ("obj", Json.str e.name);
                    ] );
              ])
        in
        (* the arrow head binds to the helped invocation's completion
           when recorded; an unterminated flow start is still an edge *)
        flow "s" ~tid:e.dom e.ts []
        :: (match Hashtbl.find_opt complete_of e.trace with
           | Some c -> [ flow "f" ~tid:c.dom (max c.ts e.ts) [ ("bp", Json.str "e") ] ]
           | None -> [])
    | _ -> []
  in
  Json.obj
    [
      ( "traceEvents",
        Json.list
          (header @ meta_events @ List.concat_map row rows
          @ List.concat_map causal evs) );
      ("displayTimeUnit", Json.str "ms");
    ]

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write path =
  with_out path (fun oc ->
      output_string oc (Json.to_string_pretty (to_json ()));
      output_char oc '\n')

(* ---------- JSONL ---------- *)

let json_of_event (e : event) =
  let line kind fields =
    Json.obj (("kind", Json.str kind) :: ("ts", Json.int e.ts) :: ("dom", Json.int e.dom) :: fields)
  in
  let named kind fields =
    line kind
      ((("name", Json.str e.name) :: (if e.cat = "" then [] else [ ("cat", Json.str e.cat) ]))
      @ fields
      @ (if e.args = [] then [] else [ ("args", Json.obj e.args) ]))
  in
  let causal kind fields =
    line kind (("obj", Json.str e.name) :: ("trace", Json.int e.trace) :: fields)
  in
  match e.kind with
  | Span -> named "span" [ ("dur_ns", Json.int (e.a - e.ts)) ]
  | Instant -> named "instant" []
  | Counter -> named "counter" []
  | Invoke -> causal "invoke" [ ("pid", Json.int e.a) ]
  | Announce -> causal "announce" [ ("pid", Json.int e.a); ("born", Json.int e.b) ]
  | Claim -> causal "claim" [ ("node", Json.int e.a); ("pos", Json.int e.b) ]
  | Help -> causal "help" [ ("helper", Json.int e.a); ("pos", Json.int e.b) ]
  | Complete ->
      causal "complete"
        [
          ("pos", Json.int e.a);
          ("own_steps", Json.int e.b);
          ("help_rounds", Json.int e.c);
        ]

let dump_jsonl path =
  let metas, rows = snapshot () in
  let evs =
    List.concat_map (fun r -> r.events) rows
    |> List.stable_sort (fun x y -> compare (x.ts, x.dom) (y.ts, y.dom))
  in
  let lines =
    List.map
      (fun m ->
        Json.obj
          [
            ("kind", Json.str "meta");
            ("obj", Json.str m.m_obj);
            ("n", Json.int m.m_n);
            ("bound", Json.int m.m_bound);
          ])
      metas
    @ List.map json_of_event evs
  in
  with_out path (fun oc ->
      List.iter
        (fun j ->
          output_string oc (Json.to_string j);
          output_char oc '\n')
        lines);
  List.length lines
