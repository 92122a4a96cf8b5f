(** Quorum strategies over [n] replicas, represented as predicates on
    bitmasks of replica indices.  This is the practical-systems
    counterpart of [Quorum.Config]: the paper's generalized
    configurations instantiated for a replica set, with exact analytic
    availability by enumeration.

    All the classical schemes the paper's algorithm generalizes are
    here: read-one/write-all, majority, Gifford's weighted voting, and
    grid quorums; [primary] is the non-replicated baseline. *)

type quorums = {
  minimal : int list;
  smallest : int list;
  size : int;
}

type t = {
  name : string;
  n : int;
  read_ok : int -> bool;  (** does this replica set contain a read quorum? *)
  write_ok : int -> bool;
  reads : quorums Lazy.t;
  writes : quorums Lazy.t;
}

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let full n = (1 lsl n) - 1

(** All minimal quorums of one side as bitmasks, in descending mask
    order (the client's random pick indexes into [smallest], so the
    order is part of every seeded run).  [ok] is upward-closed, so a
    mask is minimal iff it passes and dropping any one of its bits
    fails: [n] predicate calls per mask, no scan of the other quorums.
    Exponential enumeration, paid once per strategy and only when
    asked for. *)
let quorums_of ok n =
  let rec drops_fail q b =
    b >= n
    || (q land (1 lsl b) = 0 || not (ok (q land lnot (1 lsl b))))
       && drops_fail q (b + 1)
  in
  let minimal = ref [] in
  for m = 1 to full n do
    if ok m && drops_fail m 0 then minimal := m :: !minimal
  done;
  let minimal = !minimal in
  let size = List.fold_left (fun acc q -> Int.min acc (popcount q)) n minimal in
  { minimal; smallest = List.filter (fun q -> popcount q = size) minimal; size }

let make ~name ~n ~read_ok ~write_ok =
  {
    name;
    n;
    read_ok;
    write_ok;
    reads = lazy (quorums_of read_ok n);
    writes = lazy (quorums_of write_ok n);
  }

let quorums t = function
  | `Read -> Lazy.force t.reads
  | `Write -> Lazy.force t.writes

let min_read t = (Lazy.force t.reads).size
let min_write t = (Lazy.force t.writes).size

(** Sanity: every read quorum intersects every write quorum —
    equivalently, no read quorum [r] (the empty set included) leaves a
    write quorum inside its complement.  Exact check by enumeration
    (n <= ~12). *)
let legal t =
  let f = full t.n in
  let rec go r =
    r > f || ((not (t.read_ok r && t.write_ok (f land lnot r))) && go (r + 1))
  in
  go 0

let rowa n =
  make ~name:"read-one/write-all" ~n
    ~read_ok:(fun m -> m <> 0)
    ~write_ok:(fun m -> m = full n)

let majority n =
  let need = (n / 2) + 1 in
  make ~name:"majority" ~n
    ~read_ok:(fun m -> popcount m >= need)
    ~write_ok:(fun m -> popcount m >= need)

(** Gifford's weighted voting: votes per replica, read and write
    vote thresholds with [r + w > total]. *)
let weighted ~name ~votes ~r ~w =
  let n = Array.length votes in
  let total = Array.fold_left ( + ) 0 votes in
  if r + w <= total then invalid_arg "Strategy.weighted: r + w must exceed v";
  let sum m =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then acc := !acc + votes.(i)
    done;
    !acc
  in
  make ~name ~n ~read_ok:(fun m -> sum m >= r) ~write_ok:(fun m -> sum m >= w)

(** Grid quorums: read = one full row; write = one full row plus one
    replica from every row. *)
let grid ~rows ~cols =
  let n = rows * cols in
  let row i =
    let m = ref 0 in
    for j = 0 to cols - 1 do
      m := !m lor (1 lsl ((i * cols) + j))
    done;
    !m
  in
  let some_full_row m =
    let rec go i = i < rows && ((m land row i) = row i || go (i + 1)) in
    go 0
  in
  let covers_all_rows m =
    let rec go i = i >= rows || (m land row i <> 0 && go (i + 1)) in
    go 0
  in
  make
    ~name:(Fmt.str "grid-%dx%d" rows cols)
    ~n ~read_ok:some_full_row
    ~write_ok:(fun m -> some_full_row m && covers_all_rows m)

(** Two-level hierarchical ("tree") quorums after Kumar: the replicas
    split into [groups] contiguous subtrees, and a quorum is a
    majority of subtrees each represented by a majority of its
    members.  Any two quorums share a subtree, and inside it two
    majorities intersect — so the family is legal with read = write,
    at quorums of ~[n^0.63] for ternary trees vs. [n/2 + 1] for flat
    majority (e.g. 4 of 9 instead of 5 of 9). *)
let tree ?(groups = 3) n =
  if groups < 1 || groups > n then
    invalid_arg "Strategy.tree: groups must be in [1, n]";
  let lo g = g * n / groups in
  let hi g = (g + 1) * n / groups in
  let group_ok m g =
    let size = hi g - lo g in
    let members = (m lsr lo g) land full size in
    popcount members >= (size / 2) + 1
  in
  let ok m =
    let represented = ref 0 in
    for g = 0 to groups - 1 do
      if group_ok m g then incr represented
    done;
    !represented >= (groups / 2) + 1
  in
  make ~name:(Fmt.str "tree-%d/%d" groups n) ~n ~read_ok:ok ~write_ok:ok

(** Non-replicated baseline: everything on replica 0. *)
let primary n =
  make ~name:"primary-copy" ~n
    ~read_ok:(fun m -> m land 1 <> 0)
    ~write_ok:(fun m -> m land 1 <> 0)

(** {1 Analytic availability}

    With each replica independently alive with probability [p], the
    probability that some live quorum exists is the sum over all
    live-sets.  Exact enumeration, exponential in [n] (fine for the
    paper-scale n <= 12).  A live-set's probability is a product over
    the replicas in index order; its last bits decide the tuner's
    admissibility when [p] equals an availability floor. *)
let availability t ~p =
  let read = ref 0.0 and write = ref 0.0 in
  for m = 0 to full t.n do
    let prob = ref 1.0 in
    for i = 0 to t.n - 1 do
      prob := !prob *. (if m land (1 lsl i) <> 0 then p else 1.0 -. p)
    done;
    if t.read_ok m then read := !read +. !prob;
    if t.write_ok m then write := !write +. !prob
  done;
  (!read, !write)
