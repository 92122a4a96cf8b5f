(** Workload-aware strategy optimization: the candidate families, the
    analytic load/latency/availability model after "Read-Write Quorum
    Systems Made Practical" (PAPERS.md), and the per-shard chooser
    shared by the cluster's re-strategizing epoch, the REPL's [tune]
    command, and the [tables.exe tune] ablation.

    A strategy is scored against an observed workload (read fraction),
    an assumed per-replica alive probability, and a per-replica
    latency estimate (typically an {!Ewma} fed by live RPC replies):

    - {b peak load} — the classic load of a quorum system: assuming
      clients pick uniformly among the {e smallest} minimal quorums
      (which is what {!Client}'s random targeting does), the expected
      fraction of ops that touch each replica; the maximum over
      replicas bounds attainable throughput.
    - {b expected latency} — mean over the smallest minimal quorums of
      the slowest member's latency estimate; writes pay a read-side
      version query plus a write-side install.
    - {b availability} — probability that some read (resp. write)
      quorum is fully alive under independent replica failures. *)

(* Per-replica probability of being touched by a uniform pick among
   [masks].  Empty mask lists (an always-false side) yield zeros. *)
let membership ~n masks =
  let k = List.length masks in
  Array.init n (fun i ->
      if k = 0 then 0.0
      else
        let c =
          List.fold_left
            (fun acc q -> if q land (1 lsl i) <> 0 then acc + 1 else acc)
            0 masks
        in
        float_of_int c /. float_of_int k)

(* Mean over [masks] of the slowest member under [lat].  Summed in
   ascending mask order (a right fold over the descending list), the
   order the model's pinned outputs were computed in. *)
let expected_max ~n ~lat masks =
  match masks with
  | [] -> infinity
  | _ ->
      let total =
        List.fold_right
          (fun q acc ->
            let worst = ref neg_infinity in
            for i = 0 to n - 1 do
              if q land (1 lsl i) <> 0 then worst := Float.max !worst (lat i)
            done;
            acc +. !worst)
          masks 0.0
      in
      total /. float_of_int (List.length masks)

type score = {
  peak_load : float;
  read_latency : float;
  write_latency : float;
  op_latency : float;
  read_availability : float;
  write_availability : float;
}

let score (s : Strategy.t) ~read_fraction ~p_alive ~lat =
  if Float.compare read_fraction 0.0 < 0 || Float.compare read_fraction 1.0 > 0
  then invalid_arg "Autotune.score: read_fraction must be in [0, 1]";
  if Float.compare p_alive 0.0 < 0 || Float.compare p_alive 1.0 > 0 then
    invalid_arg "Autotune.score: p_alive must be in [0, 1]";
  let f = read_fraction and n = s.Strategy.n in
  let reads = (Strategy.quorums s `Read).smallest
  and writes = (Strategy.quorums s `Write).smallest in
  let rmem = membership ~n reads and wmem = membership ~n writes in
  let peak = ref 0.0 in
  for i = 0 to n - 1 do
    (* reads touch a read quorum; writes touch a read quorum (version
       query) and a write quorum (install) *)
    let li = (f *. rmem.(i)) +. ((1.0 -. f) *. (rmem.(i) +. wmem.(i))) in
    if Float.compare li !peak > 0 then peak := li
  done;
  let rl = expected_max ~n ~lat reads and wl = expected_max ~n ~lat writes in
  let ra, wa = Strategy.availability s ~p:p_alive in
  {
    peak_load = !peak;
    read_latency = rl;
    write_latency = wl;
    op_latency = (f *. rl) +. ((1.0 -. f) *. (rl +. wl));
    read_availability = ra;
    write_availability = wa;
  }

(* The model's fixed inputs: every replica is assumed up with
   probability [p_alive]; a candidate is admissible only if its read
   and write availabilities meet the floors; admissible candidates are
   ranked by [w_load * peak_load + w_latency * op_latency]. *)
let p_alive = 0.99
let min_read_availability = 0.99
let min_write_availability = 0.98
let w_load = 1.0
let w_latency = 0.05

let admissible sc =
  Float.compare sc.read_availability min_read_availability >= 0
  && Float.compare sc.write_availability min_write_availability >= 0

let objective sc = (w_load *. sc.peak_load) +. (w_latency *. sc.op_latency)

let pp_score ppf sc =
  Fmt.pf ppf "load=%.3f lat(r/w/op)=%.2f/%.2f/%.2f avail(r/w)=%.4f/%.4f"
    sc.peak_load sc.read_latency sc.write_latency sc.op_latency
    sc.read_availability sc.write_availability

(** The search space over [n] replicas.  Majority comes first so that
    objective ties resolve to the conservative baseline; the threshold
    sweep covers every read-[r]/write-[w] split of unit votes with
    [r + w = n + 1] (including read-one/write-all at [r = 1] and its
    mirror at [w = 1]); grids cover every [rows * cols = n]
    factorization with both sides >= 2; the tree family joins at
    [n >= 4]; primary-copy rides along as a legality/availability
    exercise for the gates. *)
let candidates n =
  if n < 1 then invalid_arg "Autotune.candidates: n must be >= 1";
  let maj = (n / 2) + 1 in
  let thresholds =
    List.filter_map
      (fun r ->
        let w = n + 1 - r in
        if r = maj && w = maj then None (* duplicate of majority *)
        else
          Some
            (Strategy.weighted
               ~name:(Fmt.str "read-%d/write-%d" r w)
               ~votes:(Array.make n 1) ~r ~w))
      (List.init n (fun i -> i + 1))
  in
  let grids =
    List.concat_map
      (fun rows ->
        if rows >= 2 && n mod rows = 0 && n / rows >= 2 then
          [ Strategy.grid ~rows ~cols:(n / rows) ]
        else [])
      (List.init n (fun i -> i + 1))
  in
  let trees = if n >= 4 then [ Strategy.tree ~groups:3 n ] else [] in
  (Strategy.majority n :: thresholds) @ grids @ trees @ [ Strategy.primary n ]

type choice = { strategy : Strategy.t; score : score }

let choose ~read_fraction ~lat n =
  let best = ref None in
  List.iter
    (fun strategy ->
      if Strategy.legal strategy then begin
        let score = score strategy ~read_fraction ~p_alive ~lat in
        if admissible score then begin
          let obj = objective score in
          match !best with
          | Some (_, b) when Float.compare obj b >= 0 -> ()
          | _ -> best := Some ({ strategy; score }, obj)
        end
      end)
    (candidates n);
  Option.map fst !best

(** The transitional strategy for re-strategizing [a] -> [b]: quorums
    must satisfy {e both} predicates, so joint reads see data at rest
    under [a]'s write quorums while joint writes already land on [b]'s
    — the two-phase fence that makes a switch safe without assuming
    the old and new quorum systems intersect each other (DESIGN.md
    §16). *)
let joint (a : Strategy.t) (b : Strategy.t) =
  if a.Strategy.n <> b.Strategy.n then
    invalid_arg "Autotune.joint: replica counts differ";
  Strategy.make
    ~name:(Fmt.str "%s+%s" a.Strategy.name b.Strategy.name)
    ~n:a.Strategy.n
    ~read_ok:(fun m -> a.Strategy.read_ok m && b.Strategy.read_ok m)
    ~write_ok:(fun m -> a.Strategy.write_ok m && b.Strategy.write_ok m)
