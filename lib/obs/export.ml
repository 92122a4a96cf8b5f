(** Trace exporters and the JSONL importer.

    - {!jsonl}: one JSON object per event per line — grep-able,
      diff-able, and byte-identical across runs with the same seed
      (the determinism regression the tests pin).
    - {!chrome}: the Chrome [trace_event] array format, loadable in
      [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}.
      Tracks map to thread ids, with [thread_name] metadata so the UI
      shows node names; one virtual time unit is rendered as 1ms.
      End events whose begin was evicted by ring-buffer wraparound are
      skipped, so the export stays well-formed on truncated traces.
    - {!parse_jsonl}: the strict inverse of {!jsonl}, for offline
      tools that re-load a dumped trace; any unparsable or
      wrongly-shaped line is a hard error, never a partial trace. *)

let json_of_arg : Trace.arg -> Json.t = function
  | Trace.Int i -> Json.Num (float_of_int i)
  | Trace.Float f -> Json.Num f
  | Trace.Str s -> Json.Str s
  | Trace.Bool b -> Json.Bool b

let json_of_args args =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)

(* ---------- JSONL ---------- *)

let jsonl_event (e : Trace.event) : Json.t =
  Json.Obj
    [
      ("seq", Json.Num (float_of_int e.Trace.seq));
      ("ts", Json.Num e.Trace.ts);
      ("cat", Json.Str e.Trace.cat);
      ("name", Json.Str e.Trace.name);
      ("track", Json.Str e.Trace.track);
      ("ph", Json.Str (Trace.phase_label e.Trace.ph));
      ("id", Json.Num (float_of_int e.Trace.id));
      ("args", json_of_args e.Trace.args);
    ]

let jsonl_of_events (events : Trace.event list) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.emit buf (jsonl_event e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let jsonl (t : Trace.t) : string = jsonl_of_events (Trace.events t)

(* ---------- JSONL import ---------- *)

let phase_of_label = function
  | "B" -> Some Trace.B
  | "E" -> Some Trace.E
  | "I" -> Some Trace.I
  | "C" -> Some Trace.C
  | _ -> None

let int_of_num f =
  (* JSON has no integer type; trace ints survive as integral floats *)
  if Float.is_integer f && Float.abs f <= 2. ** 52. then
    Some (int_of_float f)
  else None

let arg_of_json : Json.t -> Trace.arg option = function
  | Json.Num f -> (
      (* Int and Float emit identical bytes for integral values, so
         reconstructing integral numbers as Int keeps a
         parse-then-re-export round trip byte-stable *)
      match int_of_num f with
      | Some i -> Some (Trace.Int i)
      | None -> Some (Trace.Float f))
  | Json.Str s -> Some (Trace.Str s)
  | Json.Bool b -> Some (Trace.Bool b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let event_of_json (j : Json.t) : (Trace.event, string) result =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let num k = Option.bind (Json.member k j) Json.to_float_opt in
  let int k = Option.bind (num k) int_of_num in
  match
    ( int "seq",
      num "ts",
      str "cat",
      str "name",
      str "track",
      Option.bind (str "ph") phase_of_label,
      int "id",
      Json.member "args" j )
  with
  | Some seq, Some ts, Some cat, Some name, Some track, Some ph, Some id,
    Some (Json.Obj kvs) -> (
      let args =
        List.fold_left
          (fun acc (k, v) ->
            match (acc, arg_of_json v) with
            | Error _, _ -> acc
            | Ok l, Some a -> Ok ((k, a) :: l)
            | Ok _, None -> Error (Fmt.str "arg %S is not a scalar" k))
          (Ok []) kvs
      in
      match args with
      | Error e -> Error e
      | Ok rev ->
          Ok { Trace.seq; ts; cat; name; track; ph; id; args = List.rev rev })
  | _ -> Error "missing or mistyped event field"

(** Parse a {!jsonl} export back into events.  Strict: every non-empty
    line must be a well-formed event object, or the whole parse fails
    with the offending line number — no partial traces. *)
let parse_jsonl (s : string) : (Trace.event list, string) result =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        if String.length (String.trim l) = 0 then go (lineno + 1) acc rest
        else
          let parsed =
            match Json.parse l with
            | Error e -> Error e
            | Ok j -> event_of_json j
          in
          (match parsed with
          | Error e -> Error (Fmt.str "line %d: %s" lineno e)
          | Ok ev -> go (lineno + 1) (ev :: acc) rest)
  in
  go 1 [] lines

(* ---------- Chrome trace_event ---------- *)

(* Stable track -> tid assignment by order of first appearance. *)
let track_ids (events : Trace.event list) : (string, int) Hashtbl.t * string list
    =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if not (Hashtbl.mem tbl e.Trace.track) then begin
        Hashtbl.add tbl e.Trace.track (Hashtbl.length tbl + 1);
        order := e.Trace.track :: !order
      end)
    events;
  (tbl, List.rev !order)

let chrome_event tids (e : Trace.event) : Json.t =
  let tid = Hashtbl.find tids e.Trace.track in
  let base =
    [
      ("name", Json.Str e.Trace.name);
      ("cat", Json.Str e.Trace.cat);
      ("ph", Json.Str (Trace.phase_label e.Trace.ph));
      (* 1 virtual time unit -> 1ms (ts is in microseconds) *)
      ("ts", Json.Num (e.Trace.ts *. 1000.0));
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int tid));
    ]
  in
  let scope =
    (* instants need an explicit scope; "t" = thread *)
    if e.Trace.ph = Trace.I then [ ("s", Json.Str "t") ] else []
  in
  let extra =
    (* keep the sequence number, and the span id for B/E pairing *)
    ("seq", Trace.Int e.Trace.seq)
    :: (if e.Trace.id <> 0 then [ ("id", Trace.Int e.Trace.id) ] else [])
  in
  let args = [ ("args", json_of_args (e.Trace.args @ extra)) ] in
  Json.Obj (base @ scope @ args)

let chrome_of_events (events : Trace.event list) : string =
  let tids, order = track_ids events in
  let metadata =
    List.map
      (fun track ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 1.0);
            ("tid", Json.Num (float_of_int (Hashtbl.find tids track)));
            ("args", Json.Obj [ ("name", Json.Str track) ]);
          ])
      order
  in
  (* ring wraparound can evict a span's B while its E survives; an
     orphan E would render as an unbalanced Chrome trace, so E events
     whose begin is not in the export are dropped *)
  let begun = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ph = Trace.B then Hashtbl.replace begun e.Trace.id ())
    events;
  let out = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ph <> Trace.E || Hashtbl.mem begun e.Trace.id then
        out := chrome_event tids e :: !out)
    events;
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (metadata @ List.rev !out));
         ("displayTimeUnit", Json.Str "ms");
       ])

let chrome (t : Trace.t) : string = chrome_of_events (Trace.events t)

(* ---------- files ---------- *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_chrome path t = write_file path (chrome t)

(* ---------- well-formedness ---------- *)

(** Check the Chrome export parses as JSON and every span-begin has a
    matching end (and vice versa), pairing B/E by span id. *)
let check_chrome (s : string) : (unit, string) result =
  match Json.parse s with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | None -> Error "no traceEvents array"
      | Some evs ->
          let begins = Hashtbl.create 64 and bad = ref None in
          List.iter
            (fun ev ->
              match
                ( Option.bind (Json.member "ph" ev) Json.to_string_opt,
                  Option.bind (Json.member "args" ev) (Json.member "id")
                  |> Fun.flip Option.bind Json.to_float_opt )
              with
              | Some "B", Some id -> Hashtbl.replace begins id ()
              | Some "E", Some id ->
                  if Hashtbl.mem begins id then Hashtbl.remove begins id
                  else if !bad = None then
                    bad := Some (Printf.sprintf "E without B (span %g)" id)
              | _ -> ())
            evs;
          (match !bad with
          | Some e -> Error e
          | None ->
              if Hashtbl.length begins > 0 then
                Error
                  (Printf.sprintf "%d B events without matching E"
                     (Hashtbl.length begins))
              else Ok ()))
