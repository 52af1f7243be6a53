"""Desynchronization case studies: magic-state cultivation and qLDPC memories."""

from .cultivation import CultivationModel, SlackDistribution, cultivation_slack_distribution
from .qldpc_slack import qldpc_surface_slack, slack_sawtooth

__all__ = [
    "CultivationModel",
    "SlackDistribution",
    "cultivation_slack_distribution",
    "qldpc_surface_slack",
    "slack_sawtooth",
]
