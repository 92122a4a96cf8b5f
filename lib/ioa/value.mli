(** The value domain [V] of a nested transaction system type
    (paper Section 2.2), shared by every system in the repository so
    that schedules are directly comparable across systems. *)

type t =
  | Nil  (** the distinguished undefined value required to be in [V] *)
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Versioned of int * t
      (** DM domain element: (version-number, value); Section 3.1 *)
  | Config of config
      (** a quorum configuration, returned by reconfiguration reads *)
  | Recon_state of recon_state
      (** full state of a reconfigurable replica; Section 4 *)
  | Gen_config of gen_config
      (** a (generation-number, configuration) pair, the payload of a
          configuration-write access; Section 4 *)

(** A configuration: a set of read-quorums and a set of write-quorums,
    each quorum a sorted set of DM names (Section 2.3). *)
and config = { read_quorums : string list list; write_quorums : string list list }

(** The state of a reconfigurable replica (Section 4). *)
and recon_state = { version : int; data : t; generation : int; config : config }

and gen_config = { gen : int; cfg : config }

val pp : t Fmt.t
val pp_config : config Fmt.t

val equal : t -> t -> bool
(** Structural equality. *)

val config_equal : config -> config -> bool
val compare : t -> t -> int
