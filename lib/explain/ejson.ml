(* Minimal JSON values: just enough for the explain exporters and for
   parsing our own BENCH_micro.json / BENCH_history.jsonl records. No
   external dependency, no streaming — the documents involved are a few
   kilobytes. Numbers are floats (like JavaScript); object member order
   is preserved on print so emitted documents are deterministic. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------------- printing ---------------- *)

let escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The runtime primitive behind [Printf]'s [%f]/[%g] conversions, called
   directly: the same text without [Printf]'s format interpretation,
   about a third of the cost of each float in a float-heavy response. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest representation that parses back to the same float, so
   emitted records (bench history, explain reports) lose no precision. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f

(* [indent = None] prints the whole value on one line — the JSONL
   flavour BENCH_history.jsonl needs. *)
let to_string ?indent v =
  let b = Buffer.create 256 in
  let nl depth =
    match indent with
    | None -> ()
    | Some w ->
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (w * depth) ' ')
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",";
          nl (depth + 1);
          go (depth + 1) x)
        xs;
      nl depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ",";
          nl (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          go (depth + 1) x)
        kvs;
      nl depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let w = String.length word in
    if !pos + w <= n && String.sub text !pos w = word then begin
      pos := !pos + w;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = text.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub text !pos 4) in
          pos := !pos + 4;
          (* non-ASCII code points are kept as '?' — our documents are
             ASCII, this is only for robustness *)
          Buffer.add_char b (if code < 0x80 then Char.chr code else '?')
        | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let acc = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          acc := parse_value () :: !acc;
          skip_ws ()
        done;
        expect ']';
        Arr (List.rev !acc)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let acc = ref [ member () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          acc := member () :: !acc;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !acc)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_opt text =
  match parse text with v -> Some v | exception Parse_error _ -> None

(* ---------------- accessors ---------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None

let float_member k v = Option.bind (member k v) to_float
let string_member k v = Option.bind (member k v) to_str
