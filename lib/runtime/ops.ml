type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Bit_and
  | Bit_or
  | Bit_xor
  | Shl
  | Shr
  | Ushr

type cmp = Lt | Le | Gt | Ge | Eq | Neq | Strict_eq | Strict_neq

type unop = Neg | Not | Bit_not | Typeof | To_number

let is_string (v : Value.t) = match v with Str _ -> true | _ -> false

let numeric_binop op a b =
  let x = Convert.to_number a and y = Convert.to_number b in
  let r =
    match op with
    | Sub -> x -. y
    | Mul -> x *. y
    | Div -> x /. y
    | Mod -> Float.rem x y
    | Add | Bit_and | Bit_or | Bit_xor | Shl | Shr | Ushr -> assert false
  in
  Value.norm_num r

let int32_wrap n =
  let m = n land 0xFFFF_FFFF in
  if m >= 0x8000_0000 then m - 0x1_0000_0000 else m

let bitwise_binop op a b =
  let x = Convert.to_int32 a and y = Convert.to_int32 b in
  match op with
  | Bit_and -> Value.Int (x land y)
  | Bit_or -> Value.Int (x lor y)
  | Bit_xor -> Value.Int (x lxor y)
  | Shl -> Value.Int (int32_wrap (x lsl (Convert.to_uint32 b land 31)))
  | Shr -> Value.Int (x asr (Convert.to_uint32 b land 31))
  | Ushr ->
    let ux = Convert.to_uint32 a in
    Value.of_int (ux lsr (Convert.to_uint32 b land 31))
  | Add | Sub | Mul | Div | Mod -> assert false

let binop op (a : Value.t) (b : Value.t) =
  match op with
  | Add ->
    if is_string a || is_string b then
      Value.Str (Convert.to_string a ^ Convert.to_string b)
    else (
      match (a, b) with
      | Value.Int x, Value.Int y -> Value.of_int (x + y)
      | _ -> Value.norm_num (Convert.to_number a +. Convert.to_number b))
  | Sub | Mul | Div | Mod -> (
    match (op, a, b) with
    | Sub, Value.Int x, Value.Int y -> Value.of_int (x - y)
    | Mul, Value.Int x, Value.Int y -> Value.of_int (x * y)
    | _ -> numeric_binop op a b)
  | Bit_and | Bit_or | Bit_xor | Shl | Shr | Ushr -> bitwise_binop op a b

let strict_eq (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Undefined, Value.Undefined | Value.Null, Value.Null -> true
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Int x, Value.Int y -> x = y
  | Value.Double x, Value.Double y -> x = y (* NaN <> NaN, as required *)
  | Value.Int x, Value.Double y | Value.Double y, Value.Int x -> float_of_int x = y
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Obj x, Value.Obj y -> x.Value.oid = y.Value.oid
  | Value.Arr x, Value.Arr y -> x.Value.aid = y.Value.aid
  | Value.Closure x, Value.Closure y -> x.Value.cid = y.Value.cid
  | Value.Native_fun x, Value.Native_fun y -> String.equal x y
  | ( ( Value.Undefined | Value.Null | Value.Bool _ | Value.Int _ | Value.Double _
      | Value.Str _ | Value.Obj _ | Value.Arr _ | Value.Closure _ | Value.Native_fun _ ),
      _ ) ->
    false

let rec loose_eq (a : Value.t) (b : Value.t) =
  match (a, b) with
  | (Value.Undefined | Value.Null), (Value.Undefined | Value.Null) -> true
  | (Value.Int _ | Value.Double _), (Value.Int _ | Value.Double _) -> strict_eq a b
  | Value.Str x, Value.Str y -> String.equal x y
  | (Value.Int _ | Value.Double _), Value.Str _ ->
    Convert.to_number a = Convert.to_number b
  | Value.Str _, (Value.Int _ | Value.Double _) ->
    Convert.to_number a = Convert.to_number b
  | Value.Bool x, _ -> loose_eq (Value.Int (if x then 1 else 0)) b
  | _, Value.Bool y -> loose_eq a (Value.Int (if y then 1 else 0))
  | Value.Obj x, Value.Obj y -> x.Value.oid = y.Value.oid
  | Value.Arr x, Value.Arr y -> x.Value.aid = y.Value.aid
  | Value.Closure x, Value.Closure y -> x.Value.cid = y.Value.cid
  | Value.Native_fun x, Value.Native_fun y -> String.equal x y
  (* Object-to-primitive comparisons would need valueOf; outside the
     subset, they compare unequal. *)
  | ( ( Value.Undefined | Value.Null | Value.Int _ | Value.Double _ | Value.Str _
      | Value.Obj _ | Value.Arr _ | Value.Closure _ | Value.Native_fun _ ),
      _ ) ->
    false

(* The general relational path: two strings compare by code units,
   anything else as numbers, and NaN compares false. *)
let relational op (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Str x, Value.Str y -> (
    let c = String.compare x y in
    match op with
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
    | Eq | Neq | Strict_eq | Strict_neq -> invalid_arg "Ops.relational")
  | _ -> (
    let x = Convert.to_number a and y = Convert.to_number b in
    (not (Float.is_nan x || Float.is_nan y))
    &&
    match op with
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
    | Eq | Neq | Strict_eq | Strict_neq -> invalid_arg "Ops.relational")

(* Results are the two shared constants, and two ints compare as ints
   (int32 values convert to floats exactly), so comparing two ints
   allocates nothing. *)
let of_bool r = if r then Value.Bool true else Value.Bool false

let cmp op (a : Value.t) (b : Value.t) =
  match (op, a, b) with
  | Lt, Int x, Int y -> of_bool (x < y)
  | Le, Int x, Int y -> of_bool (x <= y)
  | Gt, Int x, Int y -> of_bool (x > y)
  | Ge, Int x, Int y -> of_bool (x >= y)
  | (Lt | Le | Gt | Ge), _, _ -> of_bool (relational op a b)
  | Eq, _, _ -> of_bool (loose_eq a b)
  | Neq, _, _ -> of_bool (not (loose_eq a b))
  | Strict_eq, _, _ -> of_bool (strict_eq a b)
  | Strict_neq, _, _ -> of_bool (not (strict_eq a b))

let unop op (a : Value.t) =
  match op with
  | Neg -> Value.norm_num (-.Convert.to_number a)
  | Not -> Value.Bool (not (Convert.to_boolean a))
  (* lnot x = -x - 1 stays within int32 range for int32 inputs. *)
  | Bit_not -> Value.Int (lnot (Convert.to_int32 a))
  | Typeof -> Value.Str (Value.typeof a)
  | To_number -> Value.norm_num (Convert.to_number a)

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Bit_and -> "and"
  | Bit_or -> "or"
  | Bit_xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Ushr -> "ushr"

let cmp_to_string = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Neq -> "neq"
  | Strict_eq -> "stricteq"
  | Strict_neq -> "strictneq"

let unop_to_string = function
  | Neg -> "neg"
  | Not -> "not"
  | Bit_not -> "bitnot"
  | Typeof -> "typeof"
  | To_number -> "tonum"
