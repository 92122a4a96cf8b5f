(** A minimal JSON tree, deterministic emitter, and parser — enough
    for the trace exporters and the well-formedness checks; the repo
    depends on no JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, deterministic: identical trees give identical bytes. *)

val emit : Buffer.t -> t -> unit

val parse : string -> (t, string) result

val member : string -> t -> t option
val to_list : t -> t list option
val to_string_opt : t -> string option
val to_float_opt : t -> float option
