(* Reference semantics for [Collections.kv_map]: the original
   decode/re-encode implementation, kept verbatim as the test oracle for
   the encoding-level [apply] in [lib/spec].  Every operation decodes
   the whole state into an association list, looks keys up with
   [List.assoc_opt], re-sorts on [put] and re-encodes on writes — slow,
   but obviously a sorted map. *)

open Wfs_spec

let canonical kvs = List.sort (fun (a, _) (b, _) -> Value.compare a b) kvs
let encode kvs = Value.list (List.map (fun (k, v) -> Value.pair k v) kvs)
let decode state = List.map Value.as_pair (Value.as_list state)

(* The state [kv_map ~initial] starts in, for distinct initial keys. *)
let init initial = encode (canonical initial)

let apply ?(name = "kv-map") state op =
  let kvs = decode state in
  let lookup k = List.assoc_opt k kvs |> Value.of_option in
  match Op.name op with
  | "put" ->
      let k, v = Value.as_pair (Op.arg op) in
      let displaced = lookup k in
      let kvs = canonical ((k, v) :: List.remove_assoc k kvs) in
      (encode kvs, displaced)
  | "get" -> (state, lookup (Op.arg op))
  | "del" ->
      let k = Op.arg op in
      (encode (List.remove_assoc k kvs), lookup k)
  | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
