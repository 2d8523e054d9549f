type operations = [ `All_ops | `Writes_of_others ]

type mutual =
  [ `No_agreement | `Coherence | `Global_write_order | `Total_agreement ]

let composable =
  Model.
    [
      Program_order;
      Partial_program_order;
      Po_loc;
      Own_program_order;
      Causal_order;
      Semi_causal;
    ]

let operations_to_string = function
  | `All_ops -> "all"
  | `Writes_of_others -> "writes"

let mutual_to_string = function
  | `No_agreement -> "none"
  | `Coherence -> "coherence"
  | `Global_write_order -> "global-writes"
  | `Total_agreement -> "total"

let params ~operations ~mutual ~orderings =
  if mutual = `Total_agreement && operations <> `All_ops then
    invalid_arg "Build.make: total agreement requires all operations in views";
  if List.mem Model.Semi_causal orderings && mutual = `No_agreement then
    invalid_arg "Build.make: semi-causality needs a coherence witness";
  if List.mem Model.Own_program_order orderings && mutual = `Total_agreement
  then
    invalid_arg
      "Build.make: own-po needs per-processor views, and total agreement \
       has one shared view";
  let population =
    match (operations, mutual) with
    | `All_ops, `Total_agreement -> Model.Shared_all
    | `All_ops, _ -> Model.Per_proc_all
    | `Writes_of_others, _ -> Model.Own_plus_writes
  in
  (* Independent views are legal by value; every agreement requirement
     commits to a reads-from map and a write serialization. *)
  let mutual, legality =
    match mutual with
    | `No_agreement -> (Model.No_mutual, Model.Value_legal)
    | `Coherence -> (Model.Coherence_agreement, Model.Writer_legal)
    | `Global_write_order -> (Model.Global_write_order, Model.Writer_legal)
    | `Total_agreement -> (Model.No_mutual, Model.Writer_legal)
  in
  {
    Model.population;
    ordering = List.sort_uniq compare orderings;
    mutual;
    legality;
  }

let make ~key ~name ?description ~operations ~mutual ~orderings () =
  let params = params ~operations ~mutual ~orderings in
  let description =
    match description with
    | Some d -> d
    | None ->
        Printf.sprintf "composed model: operations=%s, mutual=%s, ordering=%s"
          (operations_to_string operations)
          (mutual_to_string mutual)
          (String.concat "+" (List.map Model.ordering_to_string orderings))
  in
  Enum.model ~key ~name ~description params

let parse_operations = function
  | "all" -> Ok `All_ops
  | "writes" -> Ok `Writes_of_others
  | s -> Error (Printf.sprintf "unknown operation set %S (all | writes)" s)

let parse_mutual = function
  | "none" -> Ok `No_agreement
  | "coherence" -> Ok `Coherence
  | "global-writes" -> Ok `Global_write_order
  | "total" -> Ok `Total_agreement
  | s ->
      Error
        (Printf.sprintf
           "unknown mutual consistency %S (none | coherence | global-writes | total)"
           s)

let parse_ordering s =
  match List.find_opt (fun o -> Model.ordering_to_string o = s) composable with
  | Some o -> Ok o
  | None ->
      Error
        (Printf.sprintf "unknown ordering %S (%s)" s
           (String.concat " | " (List.map Model.ordering_to_string composable)))
