(** E14 (extension): virtual partitions vs. static majority quorums.

    One run, four phases over a 5-replica cluster:
    - A: healthy, view = all five — VP reads cost one round trip to
      one replica; static majority reads need 3 replies;
    - B: the network partitions {r0,r1,r2} | {r3,r4}; before any view
      change, VP operations that touch the wrong side fail (NACK or
      timeout);
    - C: a view change installs the majority side as the new primary
      view — operations resume, still read-one;
    - D: the partition heals; a final view change restores all five.

    Throughout, a single-writer audit checks reads are never stale —
    the view-intersection argument at work across the changes. *)

module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng

type phase_row = {
  phase : string;
  ok : int;
  failed : int;
  read_mean : float;
}

type comparison = {
  vp_read_mean : float;
  majority_read_mean : float;
  phases : phase_row list;
  stale_reads : int;
  minority_view_refused : bool;
}

let replica_names = List.init 5 (fun i -> Fmt.str "r%d" i)
let majority_side = [ "r0"; "r1"; "r2" ]
let minority_side = [ "r3"; "r4" ]

let partition net =
  List.iter
    (fun a -> List.iter (fun b -> Net.cut_link net a b) minority_side)
    ("c0" :: "mgr" :: majority_side)

let heal net =
  List.iter
    (fun a -> List.iter (fun b -> Net.heal_link net a b) minority_side)
    ("c0" :: "mgr" :: majority_side)

let run_vp ~seed : phase_row list * int * bool =
  let sim = Core.create ~seed in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ [ "c0"; "mgr" ])
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ()
  in
  let view0 = View.initial ~replicas:replica_names in
  let replicas =
    List.map (fun name -> Replica.create ~name ~initial_view:view0) replica_names
  in
  List.iter (fun r -> Replica.attach r ~net) replicas;
  let mgr = Manager.create ~name:"mgr" ~sim ~net ~all_replicas:replica_names () in
  let client = Client.create ~name:"c0" ~sim ~net ~view:view0 ~seed () in
  Client.attach client;
  let phase = ref "A-healthy" in
  let rows = Hashtbl.create 4 in
  let lat = Hashtbl.create 4 in
  let record ?(is_read = false) ok latency =
    let o, f = Option.value ~default:(0, 0) (Hashtbl.find_opt rows !phase) in
    Hashtbl.replace rows !phase (if ok then (o + 1, f) else (o, f + 1));
    if ok && is_read then
      let s =
        match Hashtbl.find_opt lat !phase with
        | Some s -> s
        | None ->
            let s = Sim.Stats.create () in
            Hashtbl.replace lat !phase s;
            s
      in
      Sim.Stats.add s latency
  in
  (* single-writer audit: a read must return a version at least as
     new as the newest write that completed BEFORE the read began —
     writes overlapping the read may legally serialize on either
     side *)
  let completed_writes : (string, (int * float) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let stale = ref 0 in
  let rng = Prng.create (seed lxor 0xeb) in
  let keys = List.init 6 (fun i -> Fmt.str "k%d" i) in
  let rec traffic n =
    if n > 0 then
      Core.schedule sim ~delay:(Prng.exponential rng ~mean:4.0) (fun () ->
          let key = Prng.choose rng keys in
          if Prng.float rng < 0.7 then begin
            let started = Core.now sim in
            Client.read client ~key ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
                record ~is_read:true ok latency;
                if ok then
                  let prior =
                    List.filter
                      (fun (_, at) -> at <= started)
                      (Option.value ~default:[]
                         (Hashtbl.find_opt completed_writes key))
                  in
                  let newest = List.fold_left (fun m (v, _) -> Int.max m v) 0 prior in
                  if vn < newest then incr stale)
          end
          else begin
            let v = Prng.int rng 100_000 in
            Client.write client ~key ~value:v
              ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
                record ok latency;
                if ok then
                  Hashtbl.replace completed_writes key
                    ((vn, Core.now sim)
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt completed_writes key)))
          end;
          traffic (n - 1))
  in
  traffic 600;
  let minority_refused = ref false in
  (* B: partition at t=600 *)
  Core.schedule sim ~delay:600.0 (fun () ->
      phase := "B-partitioned";
      partition net;
      (* a minority-side view change must be refused *)
      Manager.change_view mgr ~members:minority_side ~on_done:(fun ~ok _ ->
          if not ok then minority_refused := true));
  (* C: view change onto the majority side at t=800 *)
  Core.schedule sim ~delay:800.0 (fun () ->
      Manager.change_view mgr ~members:majority_side ~on_done:(fun ~ok view ->
          if ok then begin
            Client.set_view client view;
            phase := "C-primary-view"
          end));
  (* D: heal and restore the full view at t=1600 *)
  Core.schedule sim ~delay:1600.0 (fun () ->
      heal net;
      Manager.change_view mgr ~members:replica_names ~on_done:(fun ~ok view ->
          if ok then begin
            Client.set_view client view;
            phase := "D-healed"
          end));
  Core.run sim;
  let order = [ "A-healthy"; "B-partitioned"; "C-primary-view"; "D-healed" ] in
  ( List.filter_map
      (fun phase ->
        match Hashtbl.find_opt rows phase with
        | Some (ok, failed) ->
            let read_mean =
              match Hashtbl.find_opt lat phase with
              | Some s -> (Sim.Stats.summarize s).Sim.Stats.mean
              | None -> nan
            in
            Some { phase; ok; failed; read_mean }
        | None -> None)
      order,
    !stale,
    !minority_refused )

(** Baseline: static majority quorums on the plain store, healthy
    network, same workload shape — for the read-latency comparison. *)
let majority_read_mean ~seed =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        strategy = Store.Strategy.majority;
        workload =
          { Store.Workload.default_spec with ops_per_client = 300; read_fraction = 0.7 };
        seed;
      }
  in
  r.Store.Cluster.reads.Sim.Stats.mean

let compare ?(seed = 31) () : comparison =
  let phases, stale_reads, minority_view_refused = run_vp ~seed in
  let vp_read_mean =
    match List.find_opt (fun r -> r.phase = "A-healthy") phases with
    | Some r -> r.read_mean
    | None -> nan
  in
  {
    vp_read_mean;
    majority_read_mean = majority_read_mean ~seed;
    phases;
    stale_reads;
    minority_view_refused;
  }
