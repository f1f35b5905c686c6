type t =
  | Undefined
  | Null
  | Bool of bool
  | Int of int
  | Double of float
  | Str of string
  | Obj of obj
  | Arr of arr
  | Closure of closure
  | Native_fun of string

and obj = { props : (string, t) Hashtbl.t; mutable key_order : string list; oid : int }

and arr = { mutable elems : t array; mutable length : int; aid : int }

and closure = { fid : int; env : t ref array; cid : int }

type tag =
  | Tag_undefined
  | Tag_null
  | Tag_bool
  | Tag_int
  | Tag_double
  | Tag_string
  | Tag_object
  | Tag_array
  | Tag_function

let tag_of = function
  | Undefined -> Tag_undefined
  | Null -> Tag_null
  | Bool _ -> Tag_bool
  | Int _ -> Tag_int
  | Double _ -> Tag_double
  | Str _ -> Tag_string
  | Obj _ -> Tag_object
  | Arr _ -> Tag_array
  | Closure _ | Native_fun _ -> Tag_function

let tag_to_string = function
  | Tag_undefined -> "Undefined"
  | Tag_null -> "Null"
  | Tag_bool -> "Bool"
  | Tag_int -> "Int32"
  | Tag_double -> "Double"
  | Tag_string -> "String"
  | Tag_object -> "Object"
  | Tag_array -> "Array"
  | Tag_function -> "Function"

let int32_min = -0x8000_0000
let int32_max = 0x7FFF_FFFF

let norm_num f =
  if Float.is_integer f
     && f >= float_of_int int32_min
     && f <= float_of_int int32_max
     && not (f = 0.0 && 1.0 /. f < 0.0)
  then Int (int_of_float f)
  else Double f

let of_int n = if n >= int32_min && n <= int32_max then Int n else Double (float_of_int n)

(* Identity ids are only ever compared for equality (strict_eq, GVN value
   numbers), never for order, so an atomic counter shared by all domains
   keeps identity sound under a parallel harness without affecting any
   observable output. *)
let id_counter = Atomic.make 0

let next_id () = Atomic.fetch_and_add id_counter 1 + 1

let fresh_id = next_id

let new_obj () = { props = Hashtbl.create 8; key_order = []; oid = next_id () }

(* Property writes preserve insertion order (JS enumeration order for
   string keys), which for-in relies on. [key_order] is kept reversed. *)
let obj_set o k v =
  if not (Hashtbl.mem o.props k) then o.key_order <- k :: o.key_order;
  Hashtbl.replace o.props k v

let obj_keys o = List.rev o.key_order

let obj_with_props fields =
  let o = new_obj () in
  List.iter (fun (k, v) -> obj_set o k v) fields;
  o

let new_arr n = { elems = Array.make (max n 1) Undefined; length = n; aid = next_id () }

let arr_of_list vs =
  let elems = Array.of_list vs in
  let n = Array.length elems in
  { elems = (if n = 0 then Array.make 1 Undefined else elems); length = n; aid = next_id () }

let arr_get a i = if i >= 0 && i < a.length then a.elems.(i) else Undefined

let arr_set a i v =
  if i < 0 then ()
  else begin
    if i >= Array.length a.elems then begin
      let grown = Array.make (max (i + 1) (2 * Array.length a.elems)) Undefined in
      Array.blit a.elems 0 grown 0 a.length;
      a.elems <- grown
    end;
    if i >= a.length then a.length <- i + 1;
    a.elems.(i) <- v
  end

let same_value a b =
  match (a, b) with
  | Undefined, Undefined | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Double x, Double y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Str x, Str y -> String.equal x y
  | Obj x, Obj y -> x.oid = y.oid
  | Arr x, Arr y -> x.aid = y.aid
  | Closure x, Closure y -> x.cid = y.cid
  | Native_fun x, Native_fun y -> String.equal x y
  | ( ( Undefined | Null | Bool _ | Int _ | Double _ | Str _ | Obj _ | Arr _ | Closure _
      | Native_fun _ ),
      _ ) ->
    false

let rec same_from xs ys i =
  i >= Array.length xs || (same_value xs.(i) ys.(i) && same_from xs ys (i + 1))

let same_args xs ys = Array.length xs = Array.length ys && same_from xs ys 0

let typeof = function
  | Undefined -> "undefined"
  | Null | Obj _ | Arr _ -> "object"
  | Bool _ -> "boolean"
  | Int _ | Double _ -> "number"
  | Str _ -> "string"
  | Closure _ | Native_fun _ -> "function"

let float_to_js_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e21 then
    (* Integral doubles print without a decimal point, as in JS. *)
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    s

let rec to_display_string v =
  match v with
  | Undefined -> "undefined"
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Double f -> float_to_js_string f
  | Str s -> s
  | Obj _ -> "[object Object]"
  | Arr a ->
    let parts = List.init a.length (fun i -> to_display_string (arr_get a i)) in
    String.concat "," parts
  | Closure _ -> "[function]"
  | Native_fun name -> Printf.sprintf "[native %s]" name

let pp fmt v =
  match v with
  | Str s -> Format.fprintf fmt "%S" s
  | _ -> Format.pp_print_string fmt (to_display_string v)
