exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* Domain-local ambient state: pool tasks running engine instances on
   worker domains each get their own print sink and Math.random stream, so
   parallel harness cells cannot interleave output or perturb each other's
   random sequences. Tasks are self-contained — a fresh domain starts from
   the same defaults a fresh process would. *)
let print_hook = Support.Tls.make (fun () -> print_endline)

let print_line s = (Support.Tls.get print_hook) s
let with_print_hook h f = Support.Tls.with_value print_hook h f

(* Deterministic xorshift for Math.random: reproducible benchmark runs. *)
let random_state = Support.Tls.make (fun () -> 0x2545F4914F6CDD1D)

let reset_random seed = Support.Tls.set random_state (if seed = 0 then 1 else seed)

let next_random () =
  let x = Support.Tls.get random_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  Support.Tls.set random_state x;
  float_of_int (x land 0x3FFFFFFFFFFFFF) /. float_of_int 0x40000000000000

let arg args i = if i < Array.length args then args.(i) else Value.Undefined
let num args i = Convert.to_number (arg args i)
let int_arg args i = Convert.to_int32 (arg args i)
let str_arg args i = Convert.to_string (arg args i)

let math_unary f args = Value.norm_num (f (num args 0))

let call name args =
  match name with
  | "print" ->
    let parts = Array.to_list (Array.map Convert.to_string args) in
    print_line (String.concat " " parts);
    Value.Undefined
  | "__keys" -> (
    (* Enumerable property names (for-in support): objects in insertion
       order, arrays as index strings, primitives enumerate nothing. *)
    match args with
    | [| Value.Obj o |] ->
      Value.Arr (Value.arr_of_list (List.map (fun k -> Value.Str k) (Value.obj_keys o)))
    | [| Value.Arr a |] ->
      Value.Arr
        (Value.arr_of_list (List.init a.Value.length (fun i -> Value.Str (string_of_int i))))
    | _ -> Value.Arr (Value.arr_of_list []))
  | "Math.floor" -> math_unary Float.floor args
  | "Math.ceil" -> math_unary Float.ceil args
  | "Math.sqrt" -> math_unary Float.sqrt args
  | "Math.abs" -> math_unary Float.abs args
  | "Math.sin" -> math_unary sin args
  | "Math.cos" -> math_unary cos args
  | "Math.tan" -> math_unary tan args
  | "Math.atan" -> math_unary atan args
  | "Math.log" -> math_unary log args
  | "Math.exp" -> math_unary exp args
  | "Math.round" -> math_unary (fun x -> Float.floor (x +. 0.5)) args
  | "Math.atan2" -> Value.norm_num (Float.atan2 (num args 0) (num args 1))
  | "Math.pow" -> Value.norm_num (Float.pow (num args 0) (num args 1))
  | "Math.min" ->
    if Array.length args = 0 then Value.Double Float.infinity
    else Value.norm_num (Array.fold_left (fun acc v -> Float.min acc (Convert.to_number v)) Float.infinity args)
  | "Math.max" ->
    if Array.length args = 0 then Value.Double Float.neg_infinity
    else Value.norm_num (Array.fold_left (fun acc v -> Float.max acc (Convert.to_number v)) Float.neg_infinity args)
  | "Math.random" -> Value.Double (next_random ())
  | "String.fromCharCode" ->
    let buf = Buffer.create (Array.length args) in
    Array.iter (fun v -> Buffer.add_char buf (Char.chr (Convert.to_uint32 v land 0xFF))) args;
    Value.Str (Buffer.contents buf)
  | "parseInt" -> (
    let s = String.trim (str_arg args 0) in
    let radix = if Array.length args > 1 then int_arg args 1 else 10 in
    let parse s = try Some (int_of_string s) with Failure _ -> None in
    let attempt =
      if radix = 16 then parse ("0x" ^ s)
      else if radix = 10 || radix = 0 then (
        (* Longest numeric prefix, as JS does. *)
        let n = String.length s in
        let stop = ref 0 in
        let i0 = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
        let j = ref i0 in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        stop := !j;
        if !stop = i0 then None else parse (String.sub s 0 !stop))
      else None
    in
    match attempt with
    | Some n -> Value.of_int n
    | None -> Value.Double Float.nan)
  | "parseFloat" -> (
    match float_of_string_opt (String.trim (str_arg args 0)) with
    | Some f -> Value.norm_num f
    | None -> Value.Double Float.nan)
  | "isNaN" -> Value.Bool (Float.is_nan (num args 0))
  | other -> error "unknown native function %s" other

let is_pure = function
  | "print" | "Math.random" | "__keys" -> false
  | _ -> true

let known_natives =
  [
    "print"; "Math.floor"; "Math.ceil"; "Math.sqrt"; "Math.abs"; "Math.sin";
    "Math.cos"; "Math.tan"; "Math.atan"; "Math.atan2"; "Math.log"; "Math.exp";
    "Math.round"; "Math.pow"; "Math.min"; "Math.max"; "Math.random";
    "String.fromCharCode"; "parseInt"; "parseFloat"; "isNaN";
  ]

let exists name = List.mem name known_natives

let string_method s name args =
  let len = String.length s in
  let clamp i = max 0 (min len i) in
  match name with
  | "charAt" ->
    let i = int_arg args 0 in
    Some (Value.Str (if i >= 0 && i < len then String.make 1 s.[i] else ""))
  | "charCodeAt" ->
    let i = int_arg args 0 in
    if i >= 0 && i < len then Some (Value.Int (Char.code s.[i]))
    else Some (Value.Double Float.nan)
  | "indexOf" -> (
    let needle = str_arg args 0 in
    let nlen = String.length needle in
    let rec find i =
      if i + nlen > len then -1
      else if String.sub s i nlen = needle then i
      else find (i + 1)
    in
    Some (Value.Int (find 0)))
  | "lastIndexOf" -> (
    let needle = str_arg args 0 in
    let nlen = String.length needle in
    let rec find i =
      if i < 0 then -1 else if String.sub s i nlen = needle then i else find (i - 1)
    in
    Some (Value.Int (if nlen > len then -1 else find (len - nlen))))
  | "substring" ->
    let a = clamp (int_arg args 0) in
    let b = if Array.length args > 1 then clamp (int_arg args 1) else len in
    let lo = min a b and hi = max a b in
    Some (Value.Str (String.sub s lo (hi - lo)))
  | "slice" ->
    let resolve i = if i < 0 then clamp (len + i) else clamp i in
    let a = resolve (int_arg args 0) in
    let b = if Array.length args > 1 then resolve (int_arg args 1) else len in
    Some (Value.Str (if b > a then String.sub s a (b - a) else ""))
  | "toUpperCase" -> Some (Value.Str (String.uppercase_ascii s))
  | "toLowerCase" -> Some (Value.Str (String.lowercase_ascii s))
  | "split" ->
    let sep = str_arg args 0 in
    let parts =
      if sep = "" then List.init len (fun i -> String.make 1 s.[i])
      else begin
        let slen = String.length sep in
        let rec go start acc =
          let rec find i =
            if i + slen > len then None
            else if String.sub s i slen = sep then Some i
            else find (i + 1)
          in
          match find start with
          | None -> List.rev (String.sub s start (len - start) :: acc)
          | Some i -> go (i + slen) (String.sub s start (i - start) :: acc)
        in
        go 0 []
      end
    in
    Some (Value.Arr (Value.arr_of_list (List.map (fun p -> Value.Str p) parts)))
  | "concat" ->
    let tail = Array.to_list (Array.map Convert.to_string args) in
    Some (Value.Str (String.concat "" (s :: tail)))
  | "replace" ->
    (* First occurrence only; string patterns only (no regexes in MiniJS). *)
    let pat = str_arg args 0 and repl = str_arg args 1 in
    let plen = String.length pat in
    let rec find i =
      if plen = 0 || i + plen > len then None
      else if String.sub s i plen = pat then Some i
      else find (i + 1)
    in
    (match find 0 with
    | None -> Some (Value.Str s)
    | Some i ->
      Some (Value.Str (String.sub s 0 i ^ repl ^ String.sub s (i + plen) (len - i - plen))))
  | _ -> None

let array_method (a : Value.arr) name args =
  match name with
  | "push" ->
    Array.iter (fun v -> Value.arr_set a a.Value.length v) args;
    Some (Value.Int a.Value.length)
  | "pop" ->
    if a.Value.length = 0 then Some Value.Undefined
    else begin
      let v = Value.arr_get a (a.Value.length - 1) in
      a.Value.length <- a.Value.length - 1;
      Some v
    end
  | "shift" ->
    if a.Value.length = 0 then Some Value.Undefined
    else begin
      let v = Value.arr_get a 0 in
      for i = 0 to a.Value.length - 2 do
        a.Value.elems.(i) <- a.Value.elems.(i + 1)
      done;
      a.Value.length <- a.Value.length - 1;
      Some v
    end
  | "join" ->
    let sep = if Array.length args > 0 then str_arg args 0 else "," in
    let parts = List.init a.Value.length (fun i -> Convert.to_string (Value.arr_get a i)) in
    Some (Value.Str (String.concat sep parts))
  | "indexOf" ->
    let needle = arg args 0 in
    let rec find i =
      if i >= a.Value.length then -1
      else if Ops.strict_eq (Value.arr_get a i) needle then i
      else find (i + 1)
    in
    Some (Value.Int (find 0))
  | "slice" ->
    let len = a.Value.length in
    let resolve i = if i < 0 then max 0 (len + i) else min len i in
    let lo = if Array.length args > 0 then resolve (int_arg args 0) else 0 in
    let hi = if Array.length args > 1 then resolve (int_arg args 1) else len in
    let n = max 0 (hi - lo) in
    Some (Value.Arr (Value.arr_of_list (List.init n (fun i -> Value.arr_get a (lo + i)))))
  | "concat" ->
    let items = List.init a.Value.length (fun i -> Value.arr_get a i) in
    let extra =
      Array.to_list args
      |> List.concat_map (fun v ->
             match v with
             | Value.Arr b -> List.init b.Value.length (fun i -> Value.arr_get b i)
             | other -> [ other ])
    in
    Some (Value.Arr (Value.arr_of_list (items @ extra)))
  | "reverse" ->
    let n = a.Value.length in
    for i = 0 to (n / 2) - 1 do
      let tmp = a.Value.elems.(i) in
      a.Value.elems.(i) <- a.Value.elems.(n - 1 - i);
      a.Value.elems.(n - 1 - i) <- tmp
    done;
    Some (Value.Arr a)
  | "sort" ->
    (* Default JS sort: by string image. User comparators are outside the
       subset; benchmarks carry their own sort routines. *)
    let items = Array.init a.Value.length (fun i -> Value.arr_get a i) in
    Array.sort (fun x y -> String.compare (Convert.to_string x) (Convert.to_string y)) items;
    Array.iteri (fun i v -> a.Value.elems.(i) <- v) items;
    Some (Value.Arr a)
  | _ -> None

(* Higher-order array methods dispatch back into the engine through
   [call]; elements are passed (element, index) like JavaScript does. *)
let array_hof ~call (a : Value.arr) name args =
  let f = arg args 0 in
  let invoke v i = call f [| v; Value.Int i |] in
  let items () = List.init a.Value.length (fun i -> (Value.arr_get a i, i)) in
  match name with
  | "map" ->
    Some (Value.Arr (Value.arr_of_list (List.map (fun (v, i) -> invoke v i) (items ()))))
  | "forEach" ->
    List.iter (fun (v, i) -> ignore (invoke v i)) (items ());
    Some Value.Undefined
  | "filter" ->
    Some
      (Value.Arr
         (Value.arr_of_list
            (List.filter_map
               (fun (v, i) -> if Convert.to_boolean (invoke v i) then Some v else None)
               (items ()))))
  | "some" ->
    Some (Value.Bool (List.exists (fun (v, i) -> Convert.to_boolean (invoke v i)) (items ())))
  | "every" ->
    Some (Value.Bool (List.for_all (fun (v, i) -> Convert.to_boolean (invoke v i)) (items ())))
  | "sort" ->
    (* sort with a user comparator; stable, like the modern spec. *)
    let cmp x y =
      let r = Convert.to_number (call f [| x; y |]) in
      if r < 0.0 then -1 else if r > 0.0 then 1 else 0
    in
    let sorted = List.stable_sort cmp (List.map fst (items ())) in
    List.iteri (fun i v -> a.Value.elems.(i) <- v) sorted;
    Some (Value.Arr a)
  | "reduce" ->
    let with_init = Array.length args > 1 in
    if a.Value.length = 0 && not with_init then
      error "reduce of empty array with no initial value"
    else begin
      let start = if with_init then 0 else 1 in
      let acc = ref (if with_init then args.(1) else Value.arr_get a 0) in
      for i = start to a.Value.length - 1 do
        acc := call f [| !acc; Value.arr_get a i; Value.Int i |]
      done;
      Some !acc
    end
  | _ -> None

let is_array_hof = function
  | "map" | "forEach" | "filter" | "some" | "every" | "reduce" -> true
  | _ -> false

let method_call ?call recv name args =
  match recv with
  | Value.Str s -> string_method s name args
  | Value.Arr a -> (
    (* [sort] is higher-order exactly when handed a comparator. *)
    if is_array_hof name || (name = "sort" && Array.length args > 0) then
      match call with
      | Some call -> array_hof ~call a name args
      | None -> error "array method %s needs a callback-capable caller" name
    else array_method a name args)
  | _ -> None

let get_prop recv name =
  match (recv, name) with
  | Value.Str s, "length" -> Some (Value.Int (String.length s))
  | Value.Arr a, "length" -> Some (Value.Int a.Value.length)
  | _ -> None

let globals () =
  let math =
    Value.obj_with_props
      ([ ("PI", Value.Double Float.pi); ("E", Value.Double (exp 1.0)) ]
      @ List.map
          (fun m -> (m, Value.Native_fun ("Math." ^ m)))
          [
            "floor"; "ceil"; "sqrt"; "abs"; "sin"; "cos"; "tan"; "atan"; "atan2";
            "log"; "exp"; "round"; "pow"; "min"; "max"; "random";
          ])
  in
  let string_obj =
    Value.obj_with_props [ ("fromCharCode", Value.Native_fun "String.fromCharCode") ]
  in
  [
    ("print", Value.Native_fun "print");
    ("Math", Value.Obj math);
    ("String", Value.Obj string_obj);
    ("parseInt", Value.Native_fun "parseInt");
    ("parseFloat", Value.Native_fun "parseFloat");
    ("isNaN", Value.Native_fun "isNaN");
    ("NaN", Value.Double Float.nan);
    ("Infinity", Value.Double Float.infinity);
  ]
