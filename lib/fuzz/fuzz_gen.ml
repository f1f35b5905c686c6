type 'a gen = Random.State.t -> 'a

(* --- tiny combinators (a QCheck.Gen.t is the same function type) --- *)

let int_range lo hi st = lo + Random.State.int st (hi - lo + 1)
let oneofl xs st = List.nth xs (Random.State.int st (List.length xs))
let bool st = Random.State.bool st

(* --- shared expression generator --- *)

(* Integer expressions over the in-scope names [leaves]; every operator is
   total on ints, so any combination is well-defined. *)
let rec expr leaves depth st =
  if depth = 0 then
    if bool st then oneofl leaves st else string_of_int (int_range 0 9 st)
  else
    let a = expr leaves (depth - 1) st in
    let o = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] st in
    let b = expr leaves (depth - 1) st in
    Printf.sprintf "(%s %s %s)" a o b

(* --- the paper's core pattern: helpers + mixed-stability driver --- *)

let program st =
  let leaves = [ "x"; "y"; "i"; "t" ] in
  let body st =
    let e1 = expr leaves 2 st in
    let e2 = expr leaves 2 st in
    let bound = int_range 1 12 st in
    let kind = int_range 0 3 st in
    let loop =
      match kind with
      | 0 ->
        (* array fill + sum *)
        Printf.sprintf
          "  var a = new Array(%d);\n\
          \  for (var i = 0; i < %d; i++) a[i] = %s;\n\
          \  var t = 0;\n\
          \  for (var i = 0; i < %d; i++) t = (t + a[i]) | 0;\n"
          bound bound e1 bound
      | 1 ->
        (* closure argument applied in a loop: the map/inc shape *)
        Printf.sprintf
          "  var t = 0;\n  for (var i = 0; i < %d; i++) t = (t + y(%s, i)) | 0;\n"
          bound e1
      | 2 ->
        (* string building + rehash *)
        Printf.sprintf
          "  var s = \"\";\n\
          \  for (var i = 0; i < %d; i++) s += (%s) & 7;\n\
          \  var t = 0;\n\
          \  for (var i = 0; i < s.length; i++) t = (t * 31 + s.charCodeAt(i)) | 0;\n"
          bound e1
      | _ ->
        Printf.sprintf "  var t = 0;\n  for (var i = 0; i < %d; i++) t = (t + %s) | 0;\n"
          bound e1
    in
    let tail =
      if kind = 1 then "  return t | 0;\n"
      else Printf.sprintf "  return (t + %s) | 0;\n" e2
    in
    (loop ^ tail, kind)
  in
  let b1, k1 = body st in
  let b2, k2 = body st in
  let stable = bool st in
  let x0 = int_range 0 50 st in
  (* The y argument is a closure when the body applies it, else an int. *)
  let arg2 kind fallback = if kind = 1 then "kernel" else fallback in
  (* Arity edge: half the programs call fn2 with one argument fewer or one
     more than its arity — throughout, or after twelve calls at full arity
     — so the argument tuple the cache keys on is shorter or longer than
     the callee's parameter list. A closure y is never dropped (the body
     applies it); one extra argument is passed instead. *)
  let edge = int_range 0 5 st in
  let fn2 x y =
    let full = Printf.sprintf "fn2(%s, %s)" x y in
    let edge_call =
      if k2 = 1 || edge = 5 then Printf.sprintf "fn2(%s, %s, k)" x y
      else Printf.sprintf "fn2(%s)" x
    in
    match edge with
    | 3 | 5 -> edge_call
    | 4 -> Printf.sprintf "(k < 12 ? %s : %s)" full edge_call
    | _ -> full
  in
  let driver =
    if stable then
      Printf.sprintf
        "var r = 0;\n\
         for (var k = 0; k < 25; k++) r = (r + fn1(%d, %s) + %s) | 0;\n\
         print(r);\n"
        x0 (arg2 k1 "3")
        (fn2 (string_of_int (x0 + 1)) (arg2 k2 "4"))
    else
      Printf.sprintf
        "var r = 0;\n\
         for (var k = 0; k < 25; k++) r = (r + fn1(k, %s) + %s) | 0;\n\
         print(r);\n"
        (arg2 k1 "3") (fn2 "k" (arg2 k2 "k"))
  in
  Printf.sprintf
    "function kernel(a, b) { return (a * 2 + b) | 0; }\n\
     function fn1(x, y) {\n%s}\n\
     function fn2(x, y) {\n%s}\n%s"
    b1 b2 driver

(* --- irregular loop shapes --- *)

let loop_program st =
  let outer_bound = int_range 1 7 st in
  let inner_bound = int_range 1 6 st in
  let br = int_range 0 4 st in
  let cont = int_range 0 4 st in
  let style = int_range 0 3 st in
  let body =
    match style with
    | 0 ->
      (* nested counted loops with break/continue *)
      Printf.sprintf
        "  for (var i = 0; i < %d; i++) {\n\
        \    if (i == %d) continue;\n\
        \    for (var j = 0; j < %d; j++) {\n\
        \      if (j == %d) break;\n\
        \      t = (t + i * 10 + j) | 0;\n\
        \    }\n\
        \  }\n"
        outer_bound cont inner_bound br
    | 1 ->
      (* while(true) with multiple exits *)
      Printf.sprintf
        "  var i = 0;\n\
        \  while (true) {\n\
        \    i++;\n\
        \    if (i == %d) break;\n\
        \    if (i > %d) { t += 100; break; }\n\
        \    t = (t + i) | 0;\n\
        \  }\n"
        (br + 2) (cont + 1)
    | 2 ->
      (* assignment inside the loop condition *)
      Printf.sprintf
        "  var a = [%d];\n\
        \  var k;\n\
        \  while (!((k = a[0]) == 0)) { a[0] = k - 1; t = (t + k) | 0; }\n"
        (outer_bound + 2)
    | _ ->
      (* do-while wrapped in a counted loop *)
      Printf.sprintf
        "  for (var i = 0; i < %d; i++) {\n\
        \    var j = %d;\n\
        \    do { t = (t + j) | 0; j--; } while (j > 0);\n\
        \  }\n"
        outer_bound inner_bound
  in
  let stable = bool st in
  let arg = if stable then "7" else "k % 5" in
  Printf.sprintf
    "function kernel(n) {\n\
    \  var t = n;\n%s  return t | 0;\n\
     }\n\
     var r = 0;\n\
     for (var k = 0; k < 30; k++) r = (r + kernel(%s)) | 0;\n\
     print(r);\n"
    body arg

(* --- object-model traffic --- *)

let object_program st =
  let kind = int_range 0 4 st in
  let e = expr [ "x"; "i" ] 1 st in
  let bound = int_range 2 8 st in
  let body =
    match kind with
    | 0 ->
      (* property loads/stores and compound property assignment *)
      Printf.sprintf
        "  var o = { n: x, m: 1, sum: 0 };\n\
        \  for (var i = 0; i < %d; i++) {\n\
        \    o.n += %s;\n\
        \    o.m = (o.m * 3 + 1) | 0;\n\
        \    o.sum = (o.sum + o.n + o.m) | 0;\n\
        \  }\n\
        \  return o.sum | 0;\n"
        bound e
    | 1 ->
      (* array methods: push/pop/join grow-and-drain *)
      Printf.sprintf
        "  var a = new Array();\n\
        \  for (var i = 0; i < %d; i++) a.push((%s) & 15);\n\
        \  a.pop();\n\
        \  a.push(99);\n\
        \  var s = a.join(\"-\");\n\
        \  var t = s.length;\n\
        \  for (var i = 0; i < a.length; i++) t = (t + a[i]) | 0;\n\
        \  return t | 0;\n"
        bound e
    | 2 ->
      (* higher-order array methods over a computed array *)
      Printf.sprintf
        "  var a = new Array(%d);\n\
        \  for (var i = 0; i < %d; i++) a[i] = (%s) & 31;\n\
        \  var b = a.map(twice).filter(small);\n\
        \  var t = b.reduce(plus, 7);\n\
        \  return (t + b.length) | 0;\n"
        bound bound e
    | 3 ->
      (* for-in enumeration over a grown object *)
      Printf.sprintf
        "  var o = { seed: x };\n\
        \  for (var i = 0; i < %d; i++) o[\"k\" + i] = (%s) & 63;\n\
        \  var t = 0;\n\
        \  var names = \"\";\n\
        \  for (var k in o) { t = (t + o[k]) | 0; names += k.length; }\n\
        \  return (t + names.length) | 0;\n"
        bound e
    | _ ->
      (* string methods *)
      Printf.sprintf
        "  var s = \"\";\n\
        \  for (var i = 0; i < %d; i++) s += ((%s) & 7);\n\
        \  var parts = (s + \"9\" + s).split(\"9\");\n\
        \  var t = parts.length + s.indexOf(\"3\") + s.charCodeAt(0);\n\
        \  var u = s.substring(1, s.length - 1);\n\
        \  return (t + u.length) | 0;\n"
        (bound + 1) e
  in
  let stable = bool st in
  let arg = if stable then string_of_int (int_range 0 20 st) else "k" in
  Printf.sprintf
    "function twice(v, i) { return (v * 2 + i) | 0; }\n\
     function small(v, i) { return v < 20; }\n\
     function plus(acc, v) { return (acc + v) | 0; }\n\
     function work(x) {\n%s}\n\
     var r = 0;\n\
     for (var k = 0; k < 25; k++) r = (r + work(%s)) | 0;\n\
     print(r);\n"
    body arg

(* --- deoptimization stress --- *)

let deopt_program st =
  let kind = int_range 0 3 st in
  let bound = int_range 3 9 st in
  let big = 40000 + int_range 0 59999 st in
  let body =
    match kind with
    | 0 ->
      (* int32 overflow mid-loop: the checked-int fast path must bail,
         resume in the interpreter, and feed the overflow-recompile path *)
      Printf.sprintf
        "  var t = 1;\n\
        \  for (var i = 0; i < %d; i++) t = (t * %d + x) | 0;\n\
        \  var u = 1;\n\
        \  for (var i = 0; i < %d; i++) u = u * %d + i;\n\
        \  return (t + (u | 0)) | 0;\n"
        bound big bound big
    | 1 ->
      (* type-flipping argument: entry type barriers fail across calls *)
      Printf.sprintf
        "  var t = 0;\n\
        \  for (var i = 0; i < %d; i++) {\n\
        \    if (typeof x == \"number\") t = (t + x + i) | 0;\n\
        \    else t = (t + x.length + i) | 0;\n\
        \  }\n\
        \  return t | 0;\n"
        bound
    | 2 ->
      (* array whose element types change mid-loop: guarded loads bail *)
      Printf.sprintf
        "  var a = new Array(%d);\n\
        \  for (var i = 0; i < %d; i++) a[i] = i * 3;\n\
        \  if (x > 12) a[%d] = \"flip\";\n\
        \  var t = 0;\n\
        \  for (var i = 0; i < %d; i++) {\n\
        \    var v = a[i];\n\
        \    if (typeof v == \"number\") t = (t + v) | 0; else t = (t + v.length) | 0;\n\
        \  }\n\
        \  return t | 0;\n"
        bound bound (int_range 0 (bound - 1) st) bound
    | _ ->
      (* double contamination: an int loop poisoned by a fractional step *)
      Printf.sprintf
        "  var t = 0;\n\
        \  var step = x > 12 ? 0.5 : 1;\n\
        \  for (var i = 0; i < %d; i++) t = t + step * i;\n\
        \  return (t * 4) | 0;\n"
        bound
  in
  let flip = kind = 1 in
  let arg =
    if flip then "(k % 3 == 0 ? \"str\" + k : k)"
    else if bool st then string_of_int (int_range 0 30 st)
    else "k"
  in
  Printf.sprintf
    "function churn(x) {\n%s}\n\
     var r = 0;\n\
     for (var k = 0; k < 30; k++) r = (r + churn(%s)) | 0;\n\
     print(r);\n"
    body arg

let any_program st =
  match int_range 0 3 st with
  | 0 -> program st
  | 1 -> loop_program st
  | 2 -> object_program st
  | _ -> deopt_program st
