"""The paper's core contribution: prescient routing and the fusion table.

This package defines the routing abstraction every strategy implements
(:class:`Router`), the plan format the engine executes
(:class:`RoutingPlan` / :class:`TxnPlan`), the replicated
:class:`FusionTable`, the :class:`PrescientRouter` (Algorithm 1), and the
dynamic-provisioning planner of Section 3.3.
"""
