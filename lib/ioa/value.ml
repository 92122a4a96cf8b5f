(** The value domain [V] of a nested transaction system type.

    The paper (Section 2.2) fixes a set [V] of values that may be
    returned by transactions, containing a distinguished undefined
    value [nil].  We use one concrete, structural value type for the
    whole repository so that schedules are directly comparable across
    systems (the Theorem 10 simulation compares COMMIT values of
    same-named transactions in systems A and B).

    Two constructors exist specifically for the replication algorithm:
    - [Versioned] is the domain [D_x = N x V_x] of data managers
      (Section 3.1): a (version-number, value) pair.
    - [Recon_state] and [Gen_config] belong to the reconfiguration
      variant (Section 4), where replicas additionally carry a
      configuration and a generation number, and where write accesses
      may update either the data part or the configuration part. *)

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

(** A configuration is a set of read-quorums and a set of
    write-quorums, each quorum being a set of DM names (Section 2.3,
    following Barbara and Garcia-Molina).  Quorums are kept as sorted
    string lists so that structural equality is meaningful. *)
and config = { read_quorums : string list list; write_quorums : string list list }

(** The state of a reconfigurable replica (Section 4): data with its
    version number, plus a configuration with its generation number. *)
and recon_state = { version : int; data : t; generation : int; config : config }

and gen_config = { gen : int; cfg : config }

let rec pp ppf = function
  | Nil -> Fmt.string ppf "nil"
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp) vs
  | Versioned (n, v) -> Fmt.pf ppf "<vn=%d, %a>" n pp v
  | Config c -> pp_config ppf c
  | Recon_state { version; data; generation; config } ->
      Fmt.pf ppf "<vn=%d, %a, gen=%d, %a>" version pp data generation pp_config
        config
  | Gen_config { gen; cfg } ->
      Fmt.pf ppf "<gen=%d, %a>" gen pp_config cfg

and pp_config ppf { read_quorums; write_quorums } =
  let quorum ppf q = Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") string) q in
  Fmt.pf ppf "cfg(r=[%a]; w=[%a])"
    Fmt.(list ~sep:(any " ") quorum)
    read_quorums
    Fmt.(list ~sep:(any " ") quorum)
    write_quorums

let rec equal a b =
  match (a, b) with
  | Nil, Nil | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Pair (a1, a2), Pair (b1, b2) -> equal a1 b1 && equal a2 b2
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Versioned (n, v), Versioned (m, w) -> n = m && equal v w
  | Config c, Config d -> config_equal c d
  | Recon_state a, Recon_state b ->
      a.version = b.version && equal a.data b.data
      && a.generation = b.generation
      && config_equal a.config b.config
  | Gen_config a, Gen_config b ->
      a.gen = b.gen && config_equal a.cfg b.cfg
  | ( ( Nil | Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Versioned _
      | Config _ | Recon_state _ | Gen_config _ ),
      _ ) ->
      false

and config_equal c d =
  let ql_equal a b =
    List.length a = List.length b
    && List.for_all2 (fun x y -> List.compare String.compare x y = 0) a b
  in
  ql_equal c.read_quorums d.read_quorums
  && ql_equal c.write_quorums d.write_quorums

let compare = Stdlib.compare
