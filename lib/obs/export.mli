(** Trace exporters: JSONL (one event per line, byte-identical across
    same-seed runs, with a strict importer) and Chrome [trace_event]
    JSON (loadable in [chrome://tracing] / Perfetto; end events whose
    begin was lost to ring wraparound are dropped, so the export stays
    well-formed). *)

val jsonl : Trace.t -> string
val jsonl_of_events : Trace.event list -> string

val parse_jsonl : string -> (Trace.event list, string) result
(** The strict inverse of {!jsonl}: every non-empty line must be a
    well-formed event object, or the parse fails with the offending
    line number — never a partial trace.  Integral numbers round-trip
    as [Int] args, so parse-then-re-export is byte-stable. *)

val chrome : Trace.t -> string
val chrome_of_events : Trace.event list -> string

val write_chrome : string -> Trace.t -> unit

val check_chrome : string -> (unit, string) result
(** Well-formedness of a Chrome export: valid JSON, a [traceEvents]
    array, and balanced span begin/end events (paired by span id). *)
