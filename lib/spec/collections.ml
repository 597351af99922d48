(* Set and list objects (§3.3 mentions sets and lists among the types that
   solve 2-process consensus but not 3).  The set keeps its elements
   sorted so states are canonical; remove is made deterministic by always
   removing the least element, the paper's own suggestion (§4.1: implement
   a non-deterministic remove by a deterministic choice). *)

let insert x = Op.make "insert" x
let remove = Op.nullary "remove"
let remove_elt x = Op.make "remove-elt" x
let member x = Op.make "member" x
let size = Op.nullary "size"

let empty_result = Value.str "empty"

let set ?(name = "set") ?(initial = []) ~elements () =
  let canonical vs = List.sort_uniq Value.compare vs in
  let apply state op =
    let contents = Value.as_list state in
    match Op.name op with
    | "insert" ->
        let x = Op.arg op in
        let present = List.exists (Value.equal x) contents in
        (Value.list (canonical (x :: contents)), Value.bool (not present))
    | "remove" -> (
        (* Deterministic choice: remove the least element. *)
        match contents with
        | [] -> (state, empty_result)
        | x :: rest -> (Value.list rest, x))
    | "remove-elt" ->
        let x = Op.arg op in
        let present = List.exists (Value.equal x) contents in
        let rest = List.filter (fun y -> not (Value.equal x y)) contents in
        (Value.list rest, Value.bool present)
    | "member" ->
        (state, Value.bool (List.exists (Value.equal (Op.arg op)) contents))
    | "size" -> (state, Value.int (List.length contents))
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  let menu =
    remove :: List.concat_map (fun x -> [ insert x; member x ]) elements
  in
  Object_spec.make ~name ~init:(Value.list (canonical initial)) ~apply ~menu

(* A shared counter: increment/decrement/read.  Increment returns the new
   value, making concurrent increments observably ordered. *)
let counter ?(name = "counter") ?(init = 0) () =
  let apply state op =
    let n = Value.as_int state in
    match Op.name op with
    | "incr" -> (Value.int (n + 1), Value.int (n + 1))
    | "decr" -> (Value.int (n - 1), Value.int (n - 1))
    | "read" -> (state, state)
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  let menu = [ Op.nullary "incr"; Op.nullary "decr"; Op.nullary "read" ] in
  Object_spec.make ~name ~init:(Value.int init) ~apply ~menu

let incr = Op.nullary "incr"
let decr = Op.nullary "decr"
let read = Op.nullary "read"

(* A key→value map — the "map" shape of the universal object service
   (registers generalized to a keyed store; Corollary 10 still applies:
   registers alone cannot implement it wait-free for n ≥ 2 because it
   embeds the counter via put/get on one key).  The state is a list of
   [Pair (k, v)] bindings with strictly increasing keys (by
   [Value.compare]), so equal abstract maps have equal representations.
   [apply] works on that encoding directly: a lookup stops at the first
   key not below its target, and a write rebuilds only the bindings
   before its key and shares the rest.  [put]/[del] return the displaced
   value (⊥ when the key was absent) so concurrent writers are observably
   ordered. *)

let put k v = Op.make "put" (Value.pair k v)
let get k = Op.make "get" k
let del k = Op.make "del" k

let not_a_binding () = invalid_arg "Collections.kv_map: binding is not a pair"

(* [k]'s value in the key-sorted [bindings], as an option. *)
let rec lookup k = function
  | [] -> Value.none
  | Value.Pair (k', v) :: rest ->
      let c = Value.compare k' k in
      if c < 0 then lookup k rest else if c = 0 then Value.some v else Value.none
  | _ :: _ -> not_a_binding ()

(* [bindings] with [b = Pair (k, _)] in place of [k]'s binding, or inserted
   where [k] sorts; the value [b] displaces goes to [displaced]. *)
let rec bind k b displaced = function
  | [] -> [ b ]
  | (Value.Pair (k', v) as b') :: rest as bindings ->
      let c = Value.compare k' k in
      if c < 0 then b' :: bind k b displaced rest
      else if c = 0 then begin
        displaced := Value.some v;
        b :: rest
      end
      else b :: bindings
  | _ :: _ -> not_a_binding ()

(* [bindings] without [k]'s binding, whose value goes to [displaced];
   raises [Not_found] when [k] is unbound. *)
let rec unbind k displaced = function
  | [] -> raise_notrace Not_found
  | (Value.Pair (k', v) as b) :: rest ->
      let c = Value.compare k' k in
      if c < 0 then b :: unbind k displaced rest
      else if c = 0 then begin
        displaced := Value.some v;
        rest
      end
      else raise_notrace Not_found
  | _ :: _ -> not_a_binding ()

let kv_map ?(name = "kv-map") ?(initial = [])
    ?(keys = [ Value.str "a"; Value.str "b" ])
    ?(values = [ Value.int 0; Value.int 1; Value.int 2 ]) () =
  let initial = List.sort (fun (a, _) (b, _) -> Value.compare a b) initial in
  let rec check_distinct = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if Value.equal a b then
          invalid_arg
            (Fmt.str "Collections.kv_map: duplicate initial key %a" Value.pp a);
        check_distinct rest
    | _ -> ()
  in
  check_distinct initial;
  let apply state op =
    let bindings = Value.as_list state in
    match Op.name op with
    | "get" -> (state, lookup (Op.arg op) bindings)
    | "put" ->
        let b = Op.arg op in
        let k = fst (Value.as_pair b) in
        let displaced = ref Value.none in
        let bindings = bind k b displaced bindings in
        (Value.list bindings, !displaced)
    | "del" -> (
        let displaced = ref Value.none in
        match unbind (Op.arg op) displaced bindings with
        | bindings -> (Value.list bindings, !displaced)
        | exception Not_found -> (state, Value.none))
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  let menu =
    List.concat_map
      (fun k -> get k :: del k :: List.map (fun v -> put k v) values)
      keys
  in
  let init = Value.list (List.map (fun (k, v) -> Value.pair k v) initial) in
  Object_spec.make ~name ~init ~apply ~menu
