(** Quorum configurations (Section 2.3).

    Following Barbara and Garcia-Molina, a configuration of a set [S]
    of DM names is a pair (r, w) of sets of quorums, each quorum a
    subset of [S].  A configuration is {e legal} when every
    read-quorum intersects every write-quorum.  This strictly
    generalizes Gifford's vote-based scheme: any vote assignment with
    read-threshold [r] and write-threshold [w] such that [r + w > v]
    induces a legal configuration whose quorums are the vote-covering
    subsets, and read-one/write-all, majority, and grid quorums are
    all special cases (constructors below).

    The type is shared with {!Ioa.Value.config} so configurations can
    travel inside values (reconfiguration reads return them). *)

type t = Ioa.Value.config = {
  read_quorums : string list list;
  write_quorums : string list list;
}

let sort_quorum q = List.sort_uniq String.compare q

let make ~read_quorums ~write_quorums =
  {
    read_quorums = List.map sort_quorum read_quorums;
    write_quorums = List.map sort_quorum write_quorums;
  }

let intersects q1 q2 = List.exists (fun d -> List.mem d q2) q1

(** [legal c]: every read-quorum has a non-empty intersection with
    every write-quorum — the sole constraint the correctness proof
    needs. *)
let legal c =
  c.read_quorums <> [] && c.write_quorums <> []
  && List.for_all
       (fun r -> List.for_all (fun w -> intersects r w) c.write_quorums)
       c.read_quorums

(** [members c]: every DM name mentioned by some quorum. *)
let members c =
  List.sort_uniq String.compare
    (List.concat (c.read_quorums @ c.write_quorums))

let subset q set = List.for_all (fun d -> List.mem d set) q

(** [read_covered c set]: does [set] contain some read-quorum?  This
    is the precondition test of the TMs' REQUEST_COMMIT /
    REQUEST_CREATE(write) operations. *)
let read_covered c set = List.exists (fun q -> subset q set) c.read_quorums

let write_covered c set = List.exists (fun q -> subset q set) c.write_quorums

(** {1 Standard constructors} *)

(** Read-one / write-all. *)
let rowa dms =
  make
    ~read_quorums:(List.map (fun d -> [ d ]) dms)
    ~write_quorums:[ dms ]

(** Read-all / write-one (legal; useful in tests and ablations). *)
let raow dms =
  make ~read_quorums:[ dms ]
    ~write_quorums:(List.map (fun d -> [ d ]) dms)

let rec subsets_of_size k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
      if k = 0 then [ [] ]
      else
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest

(** Majority quorums: all subsets of size ceil((n+1)/2) on both sides. *)
let majority dms =
  let n = List.length dms in
  let m = (n / 2) + 1 in
  let qs = subsets_of_size m dms in
  make ~read_quorums:qs ~write_quorums:qs

(** Gifford's weighted voting: DMs carry votes; a read-quorum is any
    minimal subset with at least [read_threshold] votes, similarly for
    writes.  Legality requires [read_threshold + write_threshold >
    total votes] (checked). *)
let weighted ~votes ~read_threshold ~write_threshold =
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 votes in
  if read_threshold + write_threshold <= total then
    invalid_arg
      (Fmt.str "Config.weighted: r(%d) + w(%d) must exceed total votes (%d)"
         read_threshold write_threshold total)
  else
    let dms = List.map fst votes in
    let rec all_subsets = function
      | [] -> [ [] ]
      | x :: rest ->
          let s = all_subsets rest in
          List.map (fun t -> x :: t) s @ s
    in
    let vote_sum q =
      List.fold_left (fun acc d -> acc + List.assoc d votes) 0 q
    in
    let covering threshold =
      let subs =
        List.filter (fun q -> vote_sum q >= threshold) (all_subsets dms)
      in
      (* keep only the minimal covering subsets *)
      List.filter
        (fun q ->
          not
            (List.exists
               (fun q' ->
                 List.length q' < List.length q && subset q' q
                 && vote_sum q' >= threshold)
               subs))
        subs
    in
    make ~read_quorums:(covering read_threshold)
      ~write_quorums:(covering write_threshold)

(** Grid quorums over a [rows] x [cols] arrangement of the given DMs
    (row-major): a read-quorum is one full row; a write-quorum is one
    full row plus one DM from every row ("row cover").  Legal because
    a write-quorum meets every row. *)
let grid ~rows ~cols dms =
  if List.length dms <> rows * cols then
    invalid_arg "Config.grid: |dms| must equal rows * cols";
  let arr = Array.of_list dms in
  let row i = List.init cols (fun j -> arr.((i * cols) + j)) in
  let read_quorums = List.init rows row in
  (* all ways to pick one element from every row *)
  let rec covers i =
    if i >= rows then [ [] ]
    else
      let rest = covers (i + 1) in
      List.concat_map
        (fun d -> List.map (fun c -> d :: c) rest)
        (row i)
  in
  let write_quorums =
    List.concat_map
      (fun r -> List.map (fun c -> sort_quorum (r @ c)) (covers 0))
      read_quorums
  in
  make ~read_quorums ~write_quorums

let pp = Ioa.Value.pp_config
let equal = Ioa.Value.config_equal
